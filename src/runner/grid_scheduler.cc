#include "runner/grid_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "runner/thread_pool.hh"

namespace shotgun
{
namespace runner
{

namespace
{

// Registry counters the scheduler always ticks (migrated from the
// ad-hoc per-scheduler counts): resolved once, then updates are one
// relaxed atomic add each.
obs::Counter *
jobsSubmittedCounter()
{
    static obs::Counter *c =
        obs::metrics().counter("sched.jobs_submitted");
    return c;
}

obs::Counter *
pointsSubmittedCounter()
{
    static obs::Counter *c =
        obs::metrics().counter("sched.points_submitted");
    return c;
}

obs::Counter *
pointsDispatchedCounter()
{
    static obs::Counter *c =
        obs::metrics().counter("sched.points_dispatched");
    return c;
}

obs::Counter *
pointsEmittedCounter()
{
    static obs::Counter *c =
        obs::metrics().counter("sched.points_emitted");
    return c;
}

/**
 * True when `predecessor` has `size` entries, each kNoPredecessor or
 * another grid index, and following predecessors from any point ends
 * at an ungated one -- so every gate eventually opens.
 */
bool
acyclicGate(const std::vector<std::size_t> &predecessor, std::size_t size)
{
    constexpr std::size_t kNone = GridScheduler::kNoPredecessor;
    if (predecessor.size() != size)
        return false;
    // 0 = unvisited, 1 = on the current walk, 2 = reaches an ungated
    // point.
    std::vector<char> mark(size, 0);
    for (std::size_t i = 0; i < size; ++i) {
        std::size_t j = i;
        while (j != kNone && j < size && mark[j] == 0) {
            mark[j] = 1;
            j = predecessor[j];
        }
        if (j != kNone && (j >= size || mark[j] == 1))
            return false;
        for (std::size_t k = i; k != j; k = predecessor[k])
            mark[k] = 2;
    }
    return true;
}

} // namespace

/**
 * All fields are guarded by the scheduler mutex. Ordered emission
 * uses the `emitting` flag as a hand-off token: the worker that
 * finds it clear becomes the job's sole emitter and streams the
 * ready prefix (dropping the mutex around each onResult batch); a
 * worker that finds it set just parks its result -- the active
 * emitter re-carves under the mutex before clearing the flag, so a
 * parked prefix entry is never orphaned. One job's onResult calls
 * therefore never interleave or reorder, and a slow consumer blocks
 * only the one emitting worker, never the pool.
 */
struct GridScheduler::JobState
{
    std::uint64_t id = 0;
    std::vector<Experiment> grid;
    unsigned budget = 0;
    std::uint64_t weight = 1; ///< Fair-share weight (>= 1).
    std::uint64_t served = 0; ///< Points dispatched so far.
    JobHooks hooks;

    /**
     * Dispatch permutation: grid indices in the order they go to
     * workers -- grid order by default, descending costOf when the
     * job installed the hook. Emission order is grid order either
     * way.
     */
    std::vector<std::size_t> order;

    /**
     * Predecessor gate (see JobHooks::predecessors): per grid index,
     * the point that must complete first or kNoPredecessor, and
     * whether each point completed, successfully or not. A gated
     * point is held back until its predecessor completes; everything
     * else dispatches as if the gate did not exist. Empty when the
     * job has no gate.
     */
    std::vector<std::size_t> predecessor;
    std::vector<char> completed;
    std::vector<char> dispatched; ///< Per grid index (gated jobs only).

    std::size_t nextDispatch = 0; ///< First undispatched order slot.
    unsigned active = 0;          ///< Points in flight right now.
    std::vector<char> ready;      ///< Computed flags, per index.
    std::vector<SimResult> results;
    std::size_t nextEmit = 0; ///< First unemitted index.
    bool emitting = false;    ///< A worker is streaming the prefix.
    bool started = false;
    bool cancelled = false;
    bool failed = false;

    /**
     * Tracing, captured from the submitting thread's TraceContext
     * (immutable after submit, so workers read it without the
     * mutex). Untraced jobs skip every tracing branch and never
     * touch `observations`.
     */
    bool traced = false;
    std::uint64_t traceId = 0;
    std::uint64_t traceParent = 0;
    std::uint64_t queuedUs = 0; ///< Wall-clock at submit (traced).
    std::chrono::steady_clock::time_point queuedSteady;
    std::vector<PointObservation> observations;

    std::exception_ptr error; ///< Lowest-index hook exception.
    std::size_t errorIndex = 0; ///< Its grid index (tie-breaker).
    bool finalized = false;

    /**
     * Record a hook failure, keeping the lowest-index exception:
     * several in-flight points can fail together, and the reported
     * error must not depend on which worker reached the mutex
     * first. (Points after the first failure are never dispatched,
     * so the surviving choice is as deterministic as early-stop
     * allows.) Call with the scheduler mutex held.
     */
    void recordFailure(std::size_t index, std::exception_ptr e)
    {
        if (!failed || index < errorIndex) {
            failed = true;
            error = std::move(e);
            errorIndex = index;
        }
    }

    /** May grid index `i` be dispatched right now (its gate)? */
    bool eligible(std::size_t i) const
    {
        const std::size_t p = predecessor[i];
        return p == kNoPredecessor || completed[p];
    }

    /**
     * The order slot of the next dispatchable point, or grid.size()
     * when every undispatched point is gated (or none is left).
     * Without a gate this is just nextDispatch.
     */
    std::size_t nextEligibleSlot() const
    {
        if (predecessor.empty())
            return nextDispatch;
        for (std::size_t s = nextDispatch; s < order.size(); ++s) {
            const std::size_t i = order[s];
            if (!dispatched[i] && eligible(i))
                return s;
        }
        return grid.size();
    }

    /** Claim the point in order slot `s`; returns its grid index. */
    std::size_t claimSlot(std::size_t s)
    {
        const std::size_t index = order[s];
        if (predecessor.empty()) {
            ++nextDispatch;
            return index;
        }
        dispatched[index] = 1;
        while (nextDispatch < order.size() &&
               dispatched[order[nextDispatch]])
            ++nextDispatch;
        return index;
    }

    bool dispatchable() const
    {
        return !cancelled && !failed && active < budget &&
               nextEligibleSlot() < grid.size();
    }

    /** No further dispatch or in-flight work can touch this job. */
    bool terminal() const
    {
        if (finalized || active != 0)
            return false;
        return nextEmit == grid.size() || cancelled || failed;
    }
};

GridScheduler::GridScheduler(Options options) : options_(options)
{
    const unsigned count = std::max(
        1u, options_.workers == 0 ? ThreadPool::hardwareJobs()
                                  : options_.workers);
    threads_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        threads_.emplace_back([this, i]() { workerLoop(i); });
}

GridScheduler::~GridScheduler()
{
    std::vector<std::shared_ptr<JobState>> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        for (auto &job : jobs_)
            job->cancelled = true;
        finished = reapLocked();
    }
    workCv_.notify_all();
    deliverOutcomes(std::move(finished));
    // In-flight points finish on their workers, which reap and
    // deliver the remaining outcomes before exiting.
    for (auto &thread : threads_)
        thread.join();
}

std::uint64_t
GridScheduler::submit(std::vector<Experiment> grid, unsigned budget,
                      JobHooks hooks)
{
    return submit(std::move(grid), budget, 1, std::move(hooks));
}

std::uint64_t
GridScheduler::submit(std::vector<Experiment> grid, unsigned budget,
                      std::uint64_t weight, JobHooks hooks)
{
    auto job = std::make_shared<JobState>();
    job->grid = std::move(grid);
    job->weight = std::max<std::uint64_t>(1, weight);
    job->hooks = std::move(hooks);
    job->ready.assign(job->grid.size(), 0);
    job->results.resize(job->grid.size());

    // Capture the submitting thread's tracing context into the job:
    // workers re-install it around simulate, so spans and per-point
    // timing survive the hop onto pool threads. No context (the
    // default) means no tracing work anywhere on the job's path.
    if (const obs::TraceContext *ctx = obs::currentTraceContext()) {
        job->traced = ctx->traceId != 0 || ctx->collector != nullptr ||
                      obs::tracer().enabled();
        if (job->traced) {
            job->traceId = ctx->traceId != 0
                               ? ctx->traceId
                               : obs::tracer().defaultTraceId();
            job->traceParent = ctx->parentSpan;
            job->queuedUs = obs::wallClockUs();
            job->queuedSteady = std::chrono::steady_clock::now();
            job->observations.resize(job->grid.size());
        }
    }
    jobsSubmittedCounter()->add(1);
    pointsSubmittedCounter()->add(job->grid.size());

    job->order.resize(job->grid.size());
    for (std::size_t i = 0; i < job->order.size(); ++i)
        job->order[i] = i;
    if (job->hooks.costOf) {
        // Cost every point once up front (the hook may be slow), then
        // dispatch longest-first; stable sort keeps grid order for
        // equal costs, so the permutation is deterministic.
        std::vector<std::uint64_t> cost(job->grid.size());
        for (std::size_t i = 0; i < job->grid.size(); ++i)
            cost[i] = job->hooks.costOf(i, job->grid[i]);
        std::stable_sort(job->order.begin(), job->order.end(),
                         [&cost](std::size_t a, std::size_t b) {
                             return cost[a] > cost[b];
                         });
    }

    if (job->hooks.predecessors && !job->grid.empty()) {
        // Gate every point once up front, against the final dispatch
        // order (a gate may pick a key's first point in that order).
        job->predecessor = job->hooks.predecessors(job->grid, job->order);
        panic_if(!acyclicGate(job->predecessor, job->grid.size()),
                 "predecessor gate of a %zu-point grid is not an "
                 "acyclic map of grid indices",
                 job->grid.size());
        job->completed.assign(job->grid.size(), 0);
        job->dispatched.assign(job->grid.size(), 0);
    }

    std::vector<std::shared_ptr<JobState>> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job->id = nextId_++;
        const unsigned pool =
            static_cast<unsigned>(threads_.size());
        job->budget = budget == 0 ? pool : std::min(budget, pool);
        // A job admitted into a stopping scheduler (or with nothing
        // to do) is finalized through the normal path so onDone
        // still fires exactly once.
        if (stopping_)
            job->cancelled = true;
        jobs_.push_back(job);
        if (job->terminal())
            finished = reapLocked();
    }
    workCv_.notify_all();
    deliverOutcomes(std::move(finished));
    return job->id;
}

void
GridScheduler::cancel(std::uint64_t job_id)
{
    std::vector<std::shared_ptr<JobState>> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &job : jobs_) {
            if (job->id == job_id) {
                job->cancelled = true;
                break;
            }
        }
        finished = reapLocked();
    }
    // A queued job with nothing in flight finalizes right here, on
    // the cancelling thread -- no worker will ever touch it again.
    deliverOutcomes(std::move(finished));
}

void
GridScheduler::cancelAll()
{
    std::vector<std::shared_ptr<JobState>> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &job : jobs_)
            job->cancelled = true;
        finished = reapLocked();
    }
    deliverOutcomes(std::move(finished));
}

void
GridScheduler::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this]() {
        return jobs_.empty() && finalizing_ == 0;
    });
}

bool
GridScheduler::anyDispatchableLocked() const
{
    for (const auto &job : jobs_) {
        if (job->dispatchable())
            return true;
    }
    return false;
}

std::shared_ptr<GridScheduler::JobState>
GridScheduler::pickJobLocked()
{
    // Stride scheduling: serve the dispatchable job with the lowest
    // served/weight ratio, so a weight-3 job gets three points per
    // weight-1 job's one and equal weights alternate fairly. The
    // comparison cross-multiplies to stay in integers; ties go to the
    // lower id (the older job), keeping the pick deterministic.
    std::shared_ptr<JobState> best;
    for (auto &job : jobs_) {
        if (!job->dispatchable())
            continue;
        if (best == nullptr ||
            job->served * best->weight < best->served * job->weight)
            best = job;
    }
    if (best != nullptr)
        ++best->served;
    return best;
}

std::vector<std::shared_ptr<GridScheduler::JobState>>
GridScheduler::reapLocked()
{
    std::vector<std::shared_ptr<JobState>> finished;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
        if ((*it)->terminal()) {
            (*it)->finalized = true;
            ++finalizing_;
            finished.push_back(*it);
            it = jobs_.erase(it);
        } else {
            ++it;
        }
    }
    return finished;
}

void
GridScheduler::deliverOutcomes(
    std::vector<std::shared_ptr<JobState>> finished)
{
    for (auto &job : finished) {
        Outcome outcome;
        outcome.completed = job->nextEmit;
        if (job->failed) {
            outcome.status = Outcome::Status::Error;
            outcome.error = job->error;
        } else if (job->nextEmit == job->grid.size()) {
            // Everything was emitted: a cancel that raced job
            // completion reports Ok, truthfully.
            outcome.status = Outcome::Status::Ok;
        } else {
            outcome.status = Outcome::Status::Cancelled;
        }
        if (job->hooks.onDone) {
            try {
                job->hooks.onDone(outcome);
            } catch (...) {
                // Outcome delivery must never kill a worker thread
                // (or the destructor); a throwing onDone loses only
                // its own notification.
            }
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --finalizing_;
        }
        idleCv_.notify_all();
    }
}

void
GridScheduler::workerLoop(unsigned worker_index)
{
    const std::string lane =
        "worker-" + std::to_string(worker_index);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [this]() {
            return stopping_ || anyDispatchableLocked();
        });
        if (!anyDispatchableLocked()) {
            if (stopping_)
                return;
            continue;
        }

        auto job = pickJobLocked();
        const std::size_t index =
            job->claimSlot(job->nextEligibleSlot());
        ++job->active;
        const bool first = !job->started;
        job->started = true;
        lock.unlock();
        pointsDispatchedCounter()->add(1);

        // Hook exceptions (onStart/simulate/onResult) fail the job,
        // never the worker thread: an exception escaping here would
        // std::terminate the process and take every job with it.
        SimResult result;
        std::exception_ptr error;
        if (first && job->hooks.onStart) {
            try {
                job->hooks.onStart();
            } catch (...) {
                error = std::current_exception();
            }
        }
        obs::SpanCollector collector;
        obs::PointTiming timing;
        if (error == nullptr) {
            try {
                if (job->traced) {
                    // Re-install the job's tracing context on this
                    // pool thread: the point's collector catches the
                    // sim spans, the timing slot catches the phase
                    // breakdown, and the "queued" + "dispatched"
                    // spans frame the point's lifecycle.
                    obs::TraceContext ctx;
                    ctx.traceId = job->traceId;
                    ctx.parentSpan = job->traceParent;
                    ctx.collector = &collector;
                    ctx.timing = &timing;
                    ctx.lane = lane;
                    obs::ScopedTraceContext guard(&ctx);
                    obs::SpanRecord queued;
                    queued.traceId = job->traceId;
                    queued.id = obs::tracer().nextSpanId();
                    queued.parent = job->traceParent;
                    queued.name = "queued";
                    queued.category = "sched";
                    queued.process = obs::tracer().processName();
                    queued.lane = "queue";
                    queued.startUs = job->queuedUs;
                    queued.durUs = static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::microseconds>(
                            std::chrono::steady_clock::now() -
                            job->queuedSteady)
                            .count());
                    collector.add(queued);
                    if (obs::tracer().enabled())
                        obs::tracer().record(std::move(queued));
                    obs::Span dispatched("dispatched", "sched");
                    result =
                        job->hooks.simulate(index, job->grid[index]);
                } else {
                    result =
                        job->hooks.simulate(index, job->grid[index]);
                }
            } catch (...) {
                error = std::current_exception();
            }
        }

        std::vector<std::shared_ptr<JobState>> finished;
        lock.lock();
        if (error != nullptr) {
            job->recordFailure(index, error);
        } else {
            if (job->traced) {
                job->observations[index].timing = timing;
                job->observations[index].spans = collector.take();
            }
            job->results[index] = std::move(result);
            job->ready[index] = 1;
            // Become the job's emitter unless a peer already is (it
            // re-carves before clearing the flag, so this parked
            // result cannot be orphaned). The mutex is dropped
            // around each onResult batch: a slow consumer stalls
            // only this worker's current task, and every other
            // worker keeps parking results and serving other jobs.
            if (!job->emitting) {
                job->emitting = true;
                for (;;) {
                    const std::size_t from = job->nextEmit;
                    std::size_t to = from;
                    while (to < job->grid.size() && job->ready[to])
                        ++to;
                    if (to == from) {
                        job->emitting = false;
                        break;
                    }
                    job->nextEmit = to;
                    lock.unlock();
                    const std::uint64_t emit_start_us =
                        job->traced ? obs::wallClockUs() : 0;
                    const auto emit_start_steady =
                        std::chrono::steady_clock::now();
                    std::exception_ptr emit_error;
                    try {
                        for (std::size_t i = from; i < to; ++i) {
                            if (job->traced &&
                                job->hooks.onObservation)
                                job->hooks.onObservation(
                                    i, job->observations[i]);
                            if (job->hooks.onResult)
                                job->hooks.onResult(i, job->grid[i],
                                                    job->results[i]);
                        }
                    } catch (...) {
                        emit_error = std::current_exception();
                    }
                    pointsEmittedCounter()->add(to - from);
                    if (job->traced && obs::tracer().enabled()) {
                        // One "emit" span per streamed batch closes
                        // the lifecycle (queued -> dispatched -> sim
                        // phases -> emit) in the local trace file.
                        obs::SpanRecord emit;
                        emit.traceId = job->traceId;
                        emit.id = obs::tracer().nextSpanId();
                        emit.parent = job->traceParent;
                        emit.name = "emit";
                        emit.category = "sched";
                        emit.process = obs::tracer().processName();
                        emit.lane = "emit";
                        emit.startUs = emit_start_us;
                        emit.durUs = static_cast<std::uint64_t>(
                            std::chrono::duration_cast<
                                std::chrono::microseconds>(
                                std::chrono::steady_clock::now() -
                                emit_start_steady)
                                .count());
                        obs::tracer().record(std::move(emit));
                    }
                    lock.lock();
                    if (emit_error != nullptr) {
                        job->recordFailure(from, emit_error);
                        job->emitting = false;
                        break;
                    }
                }
            }
        }
        --job->active;
        // Success or failure, a completed point opens its successors'
        // gates, so no gate outlives its predecessor.
        if (!job->completed.empty())
            job->completed[index] = 1;
        finished = reapLocked();
        if (!finished.empty() || job->dispatchable()) {
            lock.unlock();
            deliverOutcomes(std::move(finished));
            // This worker freed budget (or finished a job): idle
            // workers must re-evaluate what is dispatchable.
            workCv_.notify_all();
            lock.lock();
        }
    }
}

} // namespace runner
} // namespace shotgun
