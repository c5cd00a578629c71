#include "service/server.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include "common/cli.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runner/thread_pool.hh"
#include "sim/checkpoint.hh"
#include "trace/decoded_trace.hh"

namespace shotgun
{
namespace service
{

using json::Value;

namespace
{

/**
 * Accounted size of one cached result: the map key plus the struct
 * plus its heap strings. Crude (allocator overhead is ignored) but
 * monotone in the real footprint, which is all a byte budget needs.
 */
std::size_t
resultCacheBytes(const std::string &fingerprint,
                 const CachedResult &cached)
{
    return fingerprint.size() + sizeof(CachedResult) +
           cached.result.workload.size() +
           cached.result.scheme.size();
}

unsigned
poolWorkers(unsigned jobs_option)
{
    return jobs_option != 0 ? jobs_option
                            : runner::ThreadPool::hardwareJobs();
}

/**
 * Decoded-trace-store counterpart of obs::publishCacheStats /
 * cacheStatsJson: publish into registry gauges under `prefix`, then
 * render the status frame's "traces" object (entries, bytes,
 * decodes, rejected -- same names and order as before the registry
 * existed) from those gauges.
 */
void
publishTraceStoreStats(obs::Registry &registry,
                       const std::string &prefix,
                       const DecodedTraceStoreStats &stats)
{
    registry.gauge(prefix + ".entries")
        ->set(static_cast<std::int64_t>(stats.cache.entries));
    registry.gauge(prefix + ".bytes")
        ->set(static_cast<std::int64_t>(stats.cache.bytes));
    registry.gauge(prefix + ".decodes")
        ->set(static_cast<std::int64_t>(stats.decodes));
    registry.gauge(prefix + ".rejected")
        ->set(static_cast<std::int64_t>(stats.rejected));
}

json::Value
traceStoreStatsJson(obs::Registry &registry, const std::string &prefix)
{
    auto gauge = [&](const char *field) {
        return Value::number(static_cast<std::uint64_t>(
            registry.gauge(prefix + "." + field)->value()));
    };
    Value v = Value::object();
    v.set("entries", gauge("entries"));
    v.set("bytes", gauge("bytes"));
    v.set("decodes", gauge("decodes"));
    v.set("rejected", gauge("rejected"));
    return v;
}

} // namespace

/**
 * One client connection. Result frames are written from scheduler
 * worker threads while command replies are written from the
 * connection's reader thread, hence the write mutex.
 */
struct SimServer::Connection
{
    explicit Connection(Socket sock) : channel(std::move(sock)) {}

    LineChannel channel;
    std::mutex writeMutex;

    /** False when the peer is gone; callers just stop streaming. */
    bool sendFrame(const Value &frame) { return sendLine(frame.dump()); }

    bool sendLine(std::string line)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        return channel.sendLine(std::move(line));
    }
};

struct SimServer::Job
{
    std::uint64_t id = 0;
    SubmitRequest request; ///< Grid moved out on admission.
    std::size_t total = 0; ///< Grid size (outlives the move).
    std::vector<std::string> fingerprints; ///< Index-aligned.
    unsigned budget = 0; ///< Scheduler worker budget (clamped).

    /**
     * Scheduler handle; 0 until the job is admitted. Guarded by the
     * server mutex together with cancelRequested, so a cancel frame
     * racing the admission is never lost.
     */
    std::uint64_t schedulerId = 0;
    bool cancelRequested = false;

    enum class State
    {
        Queued,
        Running,
        Ok,
        Cancelled,
        Error,
    };
    std::atomic<State> state{State::Queued};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> cachedCount{0};
    std::string message; ///< Failure detail, set before state.

    const char *stateName() const
    {
        switch (state.load()) {
          case State::Queued: return "queued";
          case State::Running: return "running";
          case State::Ok: return "ok";
          case State::Cancelled: return "cancelled";
          case State::Error: return "error";
        }
        return "?";
    }
};

SimServer::SimServer(const std::string &endpoint_spec,
                     ServerOptions options)
    : options_(options),
      listener_(Endpoint::parse(endpoint_spec)),
      cache_(options.cacheBytes, resultCacheBytes),
      scheduler_(
          runner::GridScheduler::Options{poolWorkers(options.jobs)})
{
}

SimServer::~SimServer()
{
    requestShutdown();
    // The member scheduler joins its workers on destruction, after
    // which no callback can touch this object again.
}

std::string
SimServer::endpoint() const
{
    return listener_.boundEndpoint().str();
}

std::size_t
SimServer::cacheSize() const
{
    return cache_.size();
}

MemoCacheStats
SimServer::cacheStats() const
{
    return cache_.stats();
}

void
SimServer::setCacheBackend(
    LruMemoCache<std::string, CachedResult>::LoadFn load,
    LruMemoCache<std::string, CachedResult>::StoreFn store)
{
    cache_.setBackend(std::move(load), std::move(store));
}

std::shared_ptr<const CachedResult>
SimServer::computeCached(const std::string &fingerprint,
                         const runner::Experiment &exp, bool *cached)
{
    bool computed = false;
    auto value = cache_.get(fingerprint, [&exp, &computed]() {
        computed = true;
        const SimulationDelta delta = runSimulationDelta(exp.config);
        CachedResult result;
        result.result =
            finalizeResult(delta.workload, delta.scheme,
                           delta.schemeStorageBits, delta.stats);
        // Windowed grid point: keep the raw counters so the result
        // frame (and any later cache hit) carries the stitchable
        // delta.
        if (exp.config.window.enabled()) {
            result.hasDelta = true;
            result.delta = delta.stats;
        }
        return result;
    });
    if (cached != nullptr)
        *cached = !computed;
    return value;
}

void
SimServer::log(const std::string &line)
{
    if (options_.log != nullptr)
        *options_.log << "shotgun-serve: " << line << std::endl;
}

void
SimServer::serve()
{
    log("listening on " + endpoint() + " (version " +
        cli::kVersion + ", " + std::to_string(scheduler_.workers()) +
        " workers)");

    // Reader threads flag themselves done so a long-running daemon
    // reclaims them as it accepts, not only at shutdown.
    struct Reader
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::vector<Reader> readers;
    auto reap = [&readers](bool all) {
        for (auto it = readers.begin(); it != readers.end();) {
            if (all || it->done->load()) {
                it->thread.join();
                it = readers.erase(it);
            } else {
                ++it;
            }
        }
    };

    while (!stop_.load()) {
        Socket sock = listener_.accept();
        if (!sock.valid()) {
            if (stop_.load())
                break;
            // Persistent accept failure (EMFILE, ...): retry slowly
            // instead of spinning a core.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            continue;
        }
        reap(false);
        auto conn = std::make_shared<Connection>(std::move(sock));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            // Drop expired entries so the registry tracks live
            // connections, not the connection count ever accepted.
            connections_.erase(
                std::remove_if(connections_.begin(),
                               connections_.end(),
                               [](const std::weak_ptr<Connection> &w) {
                                   return w.expired();
                               }),
                connections_.end());
            connections_.push_back(conn);
        }
        // A shutdown that snapshotted connections_ before this
        // registration could not shut this socket down; re-check so
        // the connection's reader cannot outlive the accept loop.
        if (stop_.load())
            conn->channel.socket().shutdownBoth();
        auto done = std::make_shared<std::atomic<bool>>(false);
        readers.push_back(
            {std::thread([this, conn, done]() {
                 handleConnection(conn);
                 done->store(true);
             }),
             done});
    }

    // Shutdown: close the listener (a client still queued in its
    // backlog sees EOF now, not at its deadline), join the readers
    // (no thread can admit another job), then cancel and drain the
    // scheduler -- every admitted job still gets its `done` frame (as
    // cancelled) before exit.
    listener_.close();
    reap(true);
    scheduler_.cancelAll();
    scheduler_.waitIdle();
    log("shut down");
}

void
SimServer::requestShutdown()
{
    const bool was_stopped = stop_.exchange(true);
    // shutdown(2) + wake pipe, not close(2): serve() may be blocked
    // in accept() on this fd right now; serve() closes it once its
    // accept loop exited.
    listener_.shutdownListener();
    std::vector<std::shared_ptr<Connection>> live;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &weak : connections_) {
            if (auto conn = weak.lock())
                live.push_back(std::move(conn));
        }
    }
    for (auto &conn : live)
        conn->channel.socket().shutdownBoth();
    scheduler_.cancelAll();
    if (!was_stopped)
        log("shutdown requested");
}

void
SimServer::handleSubmit(const std::shared_ptr<Connection> &conn,
                        const json::Value &frame)
{
    SubmitRequest request = decodeSubmit(frame);

    if (stop_.load())
        throw CodecError("server is shutting down");

    // Validate up front what would otherwise fatal() mid-simulation
    // and take down the daemon: a trace-backed workload needs a
    // readable, untruncated v2 trace here, long enough for the
    // requested run, recorded from the same program the submitted
    // config describes (the client read its header from the client's
    // copy of the file -- in a multi-machine deployment this server's
    // copy can differ).
    TraceProbeCache probed;
    for (const runner::Experiment &exp : request.grid) {
        std::string error;
        if (!validateExperimentTrace(exp, probed, error))
            throw CodecError(error);
    }

    auto job = std::make_shared<Job>();
    job->request = std::move(request);
    job->total = job->request.grid.size();
    const std::uint64_t request_trace_id = job->request.traceId;
    const std::uint64_t request_parent_span = job->request.parentSpan;
    job->fingerprints.reserve(job->request.grid.size());
    for (const runner::Experiment &exp : job->request.grid)
        job->fingerprints.push_back(configFingerprint(exp.config));

    const unsigned cap = scheduler_.workers();
    job->budget =
        job->request.jobs == 0
            ? cap
            : static_cast<unsigned>(std::min<std::uint64_t>(
                  job->request.jobs, cap));

    Value fingerprints = Value::array();
    for (const std::string &fp : job->fingerprints)
        fingerprints.push(Value::string(fp));

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job->id = nextJobId_++;
        jobs_.emplace(job->id, job);
    }

    // `accepted` must be on the wire before the job is admitted to
    // the scheduler, or a cache-hit job could stream results first
    // and the client would read a `result` frame as its submit reply.
    Value accepted = makeFrame("accepted");
    accepted.set("job", Value::number(job->id));
    accepted.set("total", Value::number(std::uint64_t{job->total}));
    accepted.set("fingerprints", std::move(fingerprints));
    conn->sendFrame(accepted);
    log("job " + std::to_string(job->id) + " accepted: " +
        job->request.experiment + ", " + std::to_string(job->total) +
        " points, budget " + std::to_string(job->budget));

    // Written by scheduler workers at distinct indices, read when
    // the index's ordered emission fires.
    auto cached_flags =
        std::make_shared<std::vector<char>>(job->total, 0);
    auto outcomes = std::make_shared<
        std::vector<std::shared_ptr<const CachedResult>>>(job->total);

    // For traced jobs the scheduler hands each point's observation
    // (phase timing + spans) to onObservation right before that
    // point's onResult, on the same emitter thread and never two
    // points of one job concurrently -- one slot bridges the pair.
    struct ObservationSlot
    {
        bool has = false;
        runner::GridScheduler::PointObservation value;
    };
    auto observation = std::make_shared<ObservationSlot>();

    runner::GridScheduler::JobHooks hooks;
    hooks.onObservation =
        [observation](std::size_t,
                      const runner::GridScheduler::PointObservation
                          &point) {
            observation->value = point;
            observation->has = true;
        };
    hooks.simulate = [this, job, cached_flags, outcomes](
                         std::size_t index,
                         const runner::Experiment &exp) {
        bool was_cached = false;
        auto value = computeCached(job->fingerprints[index], exp,
                                   &was_cached);
        if (was_cached) {
            job->cachedCount.fetch_add(1);
            (*cached_flags)[index] = 1;
        }
        (*outcomes)[index] = value;
        return value->result;
    };
    // Dispatch a job's own points longest-run-first (LPT): starting
    // the heavy windows early shortens the straggler tail when the
    // grid's points differ in simulated length. Emission order (and
    // thus every byte on the wire) is unaffected.
    hooks.costOf = [](std::size_t, const runner::Experiment &exp) {
        const SimWindow &window = exp.config.window;
        return window.skipInstructions +
               exp.config.warmupInstructions +
               (window.enabled() ? window.measureEnd
                                 : exp.config.measureInstructions);
    };
    // Points sharing a warmed-state checkpoint key are gated: a
    // window waits for the window that parks its start and resumes
    // its core, every other point waits for its key's first point and
    // restores its warmup (sim/checkpoint.hh). A window with a
    // predecessor never leads a key, so LPT order cannot make the
    // last window warm up alone.
    hooks.predecessors = runner::checkpointPredecessors;
    hooks.onStart = [this, job]() {
        job->state.store(Job::State::Running);
        log("job " + std::to_string(job->id) + " running");
    };
    // The hooks hold the submitting connection weakly: a client
    // that disconnects mid-job must not pin the socket fd (and pay
    // per-point frame encoding) for the rest of a long grid -- the
    // job still completes, warming the cache, it just stops
    // streaming.
    std::weak_ptr<Connection> owner = conn;
    hooks.onResult = [job, owner, cached_flags, outcomes,
                      observation](std::size_t index,
                                   const runner::Experiment &exp,
                                   const SimResult &result) {
        job->completed.fetch_add(1);
        const bool has_observation = observation->has;
        observation->has = false;
        auto conn = owner.lock();
        if (conn == nullptr)
            return;
        ResultEvent event;
        event.job = job->id;
        event.index = index;
        event.cached = (*cached_flags)[index] != 0;
        event.workload = exp.workload;
        event.label = exp.label;
        event.fingerprint = job->fingerprints[index];
        event.result = result;
        const std::shared_ptr<const CachedResult> &outcome =
            (*outcomes)[index];
        if (outcome != nullptr && outcome->hasDelta) {
            event.hasDelta = true;
            event.delta = outcome->delta;
        }
        if (has_observation) {
            event.spans = std::move(observation->value.spans);
            if (observation->value.timing.any()) {
                event.hasTiming = true;
                event.timing = observation->value.timing;
            }
        }
        conn->sendLine(encodeResultEvent(event));
    };
    hooks.onDone = [this, job, owner](
                       const runner::GridScheduler::Outcome &outcome) {
        DoneEvent done;
        done.job = job->id;
        switch (outcome.status) {
          case runner::GridScheduler::Outcome::Status::Ok:
            job->state.store(Job::State::Ok);
            done.status = "ok";
            break;
          case runner::GridScheduler::Outcome::Status::Cancelled:
            job->state.store(Job::State::Cancelled);
            done.status = "cancelled";
            break;
          case runner::GridScheduler::Outcome::Status::Error:
            try {
                std::rethrow_exception(outcome.error);
            } catch (const std::exception &e) {
                job->message = e.what();
            } catch (...) {
                job->message = "unknown error";
            }
            job->state.store(Job::State::Error);
            done.status = "error";
            done.message = job->message;
            break;
        }
        done.completed = job->completed.load();
        done.cached = job->cachedCount.load();
        if (auto conn = owner.lock())
            conn->sendFrame(encodeDone(done));
        log("job " + std::to_string(job->id) + " " + done.status +
            " (" + std::to_string(done.completed) + "/" +
            std::to_string(job->total) + " points, " +
            std::to_string(done.cached) + " cached)");
        pruneJobs();
    };

    // A trace-carrying submit (or a server running with --trace-out)
    // marks the job traced: installing a TraceContext on this thread
    // for the duration of the admission is the scheduler's opt-in
    // signal (runner/grid_scheduler.hh). The client's trace id wins;
    // a tracing-enabled server fills in its own for bare submits.
    obs::TraceContext trace_ctx;
    std::unique_ptr<obs::ScopedTraceContext> trace_scope;
    if (request_trace_id != 0 || obs::tracer().enabled()) {
        trace_ctx.traceId = request_trace_id != 0
                                ? request_trace_id
                                : obs::tracer().defaultTraceId();
        trace_ctx.parentSpan = request_parent_span;
        trace_scope.reset(new obs::ScopedTraceContext(&trace_ctx));
    }

    // The grid moves into the scheduler (which owns it for the
    // job's lifetime); the Job keeps only its size and fingerprints.
    const std::uint64_t scheduler_id =
        scheduler_.submit(std::move(job->request.grid), job->budget,
                          job->request.priority, std::move(hooks));
    trace_scope.reset();
    bool cancel_now = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job->schedulerId = scheduler_id;
        cancel_now = job->cancelRequested;
    }
    // A cancel frame that raced the admission parked its request on
    // the job; honor it now that the scheduler knows the id.
    if (cancel_now || stop_.load())
        scheduler_.cancel(scheduler_id);
}

json::Value
SimServer::statusFrame()
{
    Value jobs = Value::array();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &entry : jobs_) {
            const Job &job = *entry.second;
            JobStatus status;
            status.id = job.id;
            status.experiment = job.request.experiment;
            status.state = job.stateName();
            status.total = job.total;
            status.completed = job.completed.load();
            status.cached = job.cachedCount.load();
            status.budget = job.budget;
            jobs.push(encodeJobStatus(status));
        }
    }
    // Publish every cache's stats into the process metrics registry,
    // then render the frame objects *from the registry* -- the frame
    // and any other consumer (tests, future exporters) read the same
    // source, and the rendered field names/order match the old
    // hand-assembled objects byte for byte.
    obs::Registry &registry = obs::metrics();
    const MemoCacheStats cache_stats = cache_.stats();
    obs::publishCacheStats(registry, "serve.cache", cache_stats);
    Value cache =
        obs::cacheStatsJson(registry, "serve.cache", true);

    // Warmed-state checkpoint store and decoded-trace store stats,
    // process-wide (shared by every job), beside the result cache:
    // the three caches the one-pass grid pipeline rests on.
    obs::publishCacheStats(registry, "serve.checkpoint",
                           checkpointCache().stats());
    Value checkpoint =
        obs::cacheStatsJson(registry, "serve.checkpoint", false);

    publishTraceStoreStats(registry, "serve.traces",
                           decodedTraces().stats());
    Value traces = traceStoreStatsJson(registry, "serve.traces");

    Value server = Value::object();
    server.set("version", Value::string(cli::kVersion));
    server.set("protocol", Value::number(kProtocolVersion));
    server.set("endpoint", Value::string(endpoint()));
    server.set("cache_entries",
               Value::number(std::uint64_t{cache_stats.entries}));
    server.set("cache", std::move(cache));
    server.set("checkpoint", std::move(checkpoint));
    server.set("traces", std::move(traces));
    server.set("max_jobs",
               Value::number(std::uint64_t{scheduler_.workers()}));

    Value v = makeFrame("status");
    v.set("server", std::move(server));
    v.set("jobs", std::move(jobs));
    return v;
}

void
SimServer::handleConnection(std::shared_ptr<Connection> conn)
{
    std::string line;
    while (conn->channel.recvLine(line)) {
        Value reply;
        try {
            const Value frame = Value::parse(line);
            const std::string type = frameType(frame);
            if (type == "submit") {
                handleSubmit(conn, frame);
                continue; // handleSubmit sent `accepted` itself.
            } else if (type == "status") {
                reply = statusFrame();
            } else if (type == "ping") {
                reply = makeFrame("pong");
            } else if (type == "cancel") {
                const std::uint64_t id = frame.at("job").asU64();
                std::shared_ptr<Job> job;
                std::uint64_t scheduler_id = 0;
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    auto it = jobs_.find(id);
                    if (it != jobs_.end()) {
                        job = it->second;
                        job->cancelRequested = true;
                        scheduler_id = job->schedulerId;
                    }
                }
                if (job == nullptr) {
                    reply = makeError("unknown job " +
                                      std::to_string(id));
                } else {
                    // Stops dispatch of the job's remaining points;
                    // in-flight points finish and the `done` frame
                    // reports `cancelled` truthfully.
                    if (scheduler_id != 0)
                        scheduler_.cancel(scheduler_id);
                    reply = makeFrame("cancelling");
                    reply.set("job", Value::number(id));
                }
            } else if (type == "shutdown") {
                conn->sendFrame(makeFrame("bye"));
                requestShutdown();
                break;
            } else {
                reply = makeError("unknown frame type \"" + type +
                                  "\"");
            }
        } catch (const json::JsonError &e) {
            // Malformed frame: reject it, keep the connection.
            reply = makeError(e.what());
        } catch (const std::exception &e) {
            // Anything else a frame provoked (filesystem errors,
            // allocation failure on a huge grid, ...) is that
            // frame's problem, never the daemon's.
            reply = makeError(std::string("internal error: ") +
                              e.what());
        }
        if (!conn->sendFrame(reply))
            break;
    }
}

void
SimServer::pruneJobs()
{
    // Keep a bounded tail of terminal jobs for `status`; a daemon
    // serving thousands of submits must not hold every grid forever.
    constexpr std::size_t kRetainedJobs = 64;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = jobs_.begin();
         it != jobs_.end() && jobs_.size() > kRetainedJobs;) {
        const Job::State state = it->second->state.load();
        if (state == Job::State::Queued || state == Job::State::Running)
            ++it;
        else
            it = jobs_.erase(it);
    }
}

} // namespace service
} // namespace shotgun
