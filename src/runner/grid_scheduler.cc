#include "runner/grid_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace shotgun
{
namespace runner
{

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/**
 * What the shell keeps of a job beside its dispatcher state: the
 * grid, the hooks and the results between a point's completion and
 * its emission (written under the mutex, read by the emitter after
 * it took the run). Tracing is captured from the submitting thread's
 * TraceContext and immutable after submit, so workers read it
 * without the mutex; untraced jobs skip every tracing branch and
 * never touch `observations`.
 */
struct GridScheduler::Job
{
    std::vector<Experiment> grid;
    JobHooks hooks;
    std::vector<SimResult> results;

    bool traced = false;
    std::uint64_t traceId = 0;
    std::uint64_t traceParent = 0;
    std::uint64_t queuedUs = 0; ///< Wall-clock at submit (traced).
    std::chrono::steady_clock::time_point queuedSteady;
    std::vector<PointObservation> observations;
};

GridScheduler::GridScheduler(Options options)
{
    const unsigned count = std::max(
        1u, options.workers == 0 ? hardwareJobs() : options.workers);
    threads_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        threads_.emplace_back([this, i]() { workerLoop(i); });
}

GridScheduler::~GridScheduler()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cancelAll();
    workCv_.notify_all();
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
    auto job = std::make_shared<Job>();
    job->grid = std::move(grid);
    job->hooks = std::move(hooks);
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

    // Cost and gate every point once up front, outside the mutex (the
    // hooks may be slow); the gate sees the final dispatch order.
    std::vector<std::uint64_t> cost(job->grid.size(), 0);
    if (job->hooks.costOf) {
        for (std::size_t i = 0; i < cost.size(); ++i)
            cost[i] = job->hooks.costOf(i, job->grid[i]);
    }
    Dispatcher::Gate gate;
    if (job->hooks.predecessors)
        gate = [&job](const std::vector<std::size_t> &order) {
            return job->hooks.predecessors(job->grid, order);
        };
    Dispatcher::Plan plan = Dispatcher::plan(cost, gate);

    Finished finished;
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = nextId_++;
        const unsigned pool = static_cast<unsigned>(threads_.size());
        dispatcher_.submit(id, std::move(plan),
                           budget == 0 ? pool : std::min(budget, pool),
                           weight);
        jobs_.emplace(id, job);
        // A job admitted into a stopping scheduler (or with nothing
        // to do) is finalized through the normal path so onDone
        // still fires exactly once.
        if (stopping_)
            dispatcher_.cancel(id);
        reapLocked(id, finished);
    }
    workCv_.notify_all();
    deliverOutcomes(std::move(finished));
    return id;
}

void
GridScheduler::cancel(std::uint64_t job_id)
{
    // A queued job with nothing in flight finalizes right here, on
    // the cancelling thread -- no worker will ever touch it again.
    Finished finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dispatcher_.cancel(job_id);
        reapLocked(job_id, finished);
    }
    deliverOutcomes(std::move(finished));
}

void
GridScheduler::cancelAll()
{
    Finished finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // reapLocked may erase the job just cancelled, never another.
        for (auto it = jobs_.begin(); it != jobs_.end();) {
            const Dispatcher::JobId id = (it++)->first;
            dispatcher_.cancel(id);
            reapLocked(id, finished);
        }
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

void
GridScheduler::reapLocked(Dispatcher::JobId id, Finished &finished)
{
    Outcome outcome;
    if (!dispatcher_.finish(id, outcome))
        return;
    const auto it = jobs_.find(id);
    finished.emplace_back(std::move(it->second), std::move(outcome));
    jobs_.erase(it);
    ++finalizing_;
}

void
GridScheduler::deliverOutcomes(Finished finished)
{
    for (auto &entry : finished) {
        if (entry.first->hooks.onDone) {
            try {
                entry.first->hooks.onDone(entry.second);
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
GridScheduler::emit(std::unique_lock<std::mutex> &lock,
                    Dispatcher::JobId id, Job &job)
{
    // The mutex is dropped around each onResult batch: a slow
    // consumer stalls only this worker, and every other worker keeps
    // completing points and serving other jobs.
    for (bool holding = false;;) {
        const Dispatcher::Run run = dispatcher_.takeEmit(id, holding);
        if (run.empty())
            return;
        holding = true;
        lock.unlock();
        const std::uint64_t emit_start_us =
            job.traced ? obs::wallClockUs() : 0;
        const auto emit_start_steady = std::chrono::steady_clock::now();
        std::exception_ptr emit_error;
        try {
            for (std::size_t i = run.from; i < run.to; ++i) {
                if (job.traced && job.hooks.onObservation)
                    job.hooks.onObservation(i, job.observations[i]);
                if (job.hooks.onResult)
                    job.hooks.onResult(i, job.grid[i], job.results[i]);
            }
        } catch (...) {
            emit_error = std::current_exception();
        }
        // One "emit" span per streamed batch closes the lifecycle
        // (queued -> dispatched -> sim phases -> emit) in the local
        // trace file.
        if (job.traced && obs::tracer().enabled())
            obs::tracer().record(obs::spanUntilNow(
                job.traceId, job.traceParent, "emit", "sched", "emit",
                emit_start_us, emit_start_steady));
        lock.lock();
        if (emit_error != nullptr)
            dispatcher_.fail(id, run.from, emit_error);
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
            return stopping_ || dispatcher_.dispatchable();
        });
        const Dispatcher::Dispatch point = dispatcher_.pick();
        if (point.ticket == 0) {
            if (stopping_)
                return;
            continue;
        }
        const std::shared_ptr<Job> job = jobs_.at(point.job);
        const std::size_t index = point.index;
        lock.unlock();

        // Hook exceptions (onStart/simulate/onResult) fail the job,
        // never the worker thread: an exception escaping here would
        // std::terminate the process and take every job with it.
        SimResult result;
        std::exception_ptr error;
        if (point.first && job->hooks.onStart) {
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
                    obs::SpanRecord queued = obs::spanUntilNow(
                        job->traceId, job->traceParent, "queued",
                        "sched", "queue", job->queuedUs,
                        job->queuedSteady);
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

        lock.lock();
        if (error != nullptr) {
            dispatcher_.fail(point.ticket, error);
        } else {
            if (job->traced) {
                job->observations[index].timing = timing;
                job->observations[index].spans = collector.take();
            }
            job->results[index] = std::move(result);
            dispatcher_.complete(point.ticket);
        }
        emit(lock, point.job, *job);
        Finished finished;
        reapLocked(point.job, finished);
        if (!finished.empty() || dispatcher_.dispatchable()) {
            lock.unlock();
            deliverOutcomes(std::move(finished));
            // This worker freed budget or opened a gate (or finished
            // a job): idle workers must re-evaluate what is
            // dispatchable.
            workCv_.notify_all();
            lock.lock();
        }
    }
}

} // namespace runner
} // namespace shotgun
