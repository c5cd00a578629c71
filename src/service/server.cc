#include "service/server.hh"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/cli.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "trace/decoded_trace.hh"

namespace shotgun
{
namespace service
{

using json::Value;

namespace
{

unsigned
poolWorkers(unsigned jobs_option)
{
    return jobs_option != 0 ? jobs_option : runner::hardwareJobs();
}

/** The status frame's "traces" object. */
json::Value
traceStoreStatsJson(const DecodedTraceStoreStats &stats)
{
    Value v = Value::object();
    v.set("entries", Value::number(std::uint64_t{stats.cache.entries}));
    v.set("bytes", Value::number(std::uint64_t{stats.cache.bytes}));
    v.set("decodes", Value::number(std::uint64_t{stats.decodes}));
    v.set("rejected", Value::number(std::uint64_t{stats.rejected}));
    return v;
}

} // namespace

struct SimServer::Job : DaemonJob
{
    using DaemonJob::DaemonJob;

    /**
     * Scheduler handle; 0 until the job is admitted. Guarded by the
     * daemon mutex together with cancelRequested, so a cancel frame
     * racing the admission is never lost.
     */
    std::uint64_t schedulerId = 0;
    bool cancelRequested = false;
};

SimServer::SimServer(const std::string &endpoint_spec,
                     ServerOptions options)
    : Daemon(endpoint_spec, "shotgun-serve", options.log,
             options.cacheBytes),
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

std::size_t
SimServer::cacheSize() const
{
    return cache_.size();
}

std::shared_ptr<const SimResult>
SimServer::computeCached(const std::string &fingerprint,
                         const runner::Experiment &exp, bool *cached)
{
    bool computed = false;
    auto value = cache_.get(fingerprint, [&exp, &computed]() {
        computed = true;
        return runSimulation(exp.config);
    });
    if (cached != nullptr)
        *cached = !computed;
    return value;
}

std::string
SimServer::banner() const
{
    return std::to_string(scheduler_.workers()) + " workers";
}

void
SimServer::onShutdown()
{
    scheduler_.cancelAll();
}

void
SimServer::drain()
{
    // Every admitted job still gets its `done` frame (as cancelled).
    scheduler_.cancelAll();
    scheduler_.waitIdle();
}

void
SimServer::handleSubmit(const std::shared_ptr<Connection> &conn,
                        std::shared_ptr<const DecodedSubmit> submit)
{
    const SubmitRequest &request = submit->request;
    if (stopping())
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

    auto job = std::make_shared<Job>(std::move(submit));
    const unsigned cap = scheduler_.workers();
    job->budget = request.jobs == 0
                      ? cap
                      : static_cast<unsigned>(std::min<std::uint64_t>(
                            request.jobs, cap));

    // `accepted` is on the wire before the job reaches the
    // scheduler, or a cache-hit job could stream results first.
    admit(conn, job);
    log("job " + std::to_string(job->id) + " accepted: " +
        request.experiment + ", " + std::to_string(job->total) +
        " points, budget " + std::to_string(job->budget));

    // Written by scheduler workers at distinct indices, read when
    // the index's ordered emission fires.
    auto cached_flags =
        std::make_shared<std::vector<char>>(job->total, 0);

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
    hooks.simulate = [this, job, cached_flags](
                         std::size_t index,
                         const runner::Experiment &exp) {
        bool was_cached = false;
        auto value = computeCached(job->submit->fingerprints[index],
                                   exp, &was_cached);
        if (was_cached) {
            job->cachedCount.fetch_add(1);
            (*cached_flags)[index] = 1;
        }
        return *value;
    };
    // Dispatch a job's own points longest-run-first (LPT): starting
    // the heavy points early shortens the straggler tail when the
    // grid's points differ in simulated length. Emission order (and
    // thus every byte on the wire) is unaffected.
    hooks.costOf = [](std::size_t, const runner::Experiment &exp) {
        return exp.config.streamInstructions();
    };
    // Points sharing a warmed-state checkpoint key are gated: a
    // window waits for the window that parks its start and resumes
    // its core, every other point waits for its key's first point and
    // restores its warmup (sim/checkpoint.hh). A window with a
    // predecessor never leads a key, so LPT order cannot make the
    // last window warm up alone.
    hooks.predecessors = runner::checkpointPredecessors;
    hooks.onStart = [this, job]() {
        job->running.store(true);
        log("job " + std::to_string(job->id) + " running");
    };
    hooks.onResult = [this, job, cached_flags,
                      observation](std::size_t index,
                                   const runner::Experiment &exp,
                                   const SimResult &result) {
        job->completed.fetch_add(1);
        const bool has_observation = observation->has;
        observation->has = false;
        auto conn = ownerOf(*job);
        if (conn == nullptr)
            return;
        ResultEvent event;
        event.job = job->id;
        event.index = index;
        event.cached = (*cached_flags)[index] != 0;
        event.workload = exp.workload;
        event.label = exp.label;
        event.fingerprint = job->submit->fingerprints[index];
        event.result = result;
        if (has_observation) {
            event.spans = std::move(observation->value.spans);
            if (observation->value.timing.any()) {
                event.hasTiming = true;
                event.timing = observation->value.timing;
            }
        }
        conn->sendLine(encodeFrame(event));
    };
    hooks.onDone = [this, job](
                       const runner::GridScheduler::Outcome &outcome) {
        finishJob(*job, outcome);
    };

    // A trace-carrying submit (or a server running with --trace-out)
    // marks the job traced: installing a TraceContext on this thread
    // for the duration of the admission is the scheduler's opt-in
    // signal (runner/grid_scheduler.hh). The client's trace id wins;
    // a tracing-enabled server fills in its own for bare submits.
    obs::TraceContext trace_ctx;
    std::unique_ptr<obs::ScopedTraceContext> trace_scope;
    if (request.traceId != 0 || obs::tracer().enabled()) {
        trace_ctx.traceId = request.traceId != 0
                                ? request.traceId
                                : obs::tracer().defaultTraceId();
        trace_ctx.parentSpan = request.parentSpan;
        trace_scope.reset(new obs::ScopedTraceContext(&trace_ctx));
    }

    // The scheduler owns a copy of the grid for the job's lifetime.
    const std::uint64_t scheduler_id =
        scheduler_.submit(request.grid, job->budget, request.priority,
                          std::move(hooks));
    trace_scope.reset();
    bool cancel_now = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job->schedulerId = scheduler_id;
        cancel_now = job->cancelRequested;
    }
    // A cancel frame that raced the admission parked its request on
    // the job; honor it now that the scheduler knows the id.
    if (cancel_now || stopping())
        scheduler_.cancel(scheduler_id);
}

bool
SimServer::cancelJob(std::uint64_t id)
{
    std::uint64_t scheduler_id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto job = findJobLocked<Job>(id);
        if (job == nullptr)
            return false;
        job->cancelRequested = true;
        scheduler_id = job->schedulerId;
    }
    if (scheduler_id != 0)
        scheduler_.cancel(scheduler_id);
    return true;
}

json::Value
SimServer::statusFrame()
{
    Value jobs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs = jobStatusesLocked();
    }
    const MemoCacheStats cache_stats = cache_.stats();

    // Program images, which programFor publishes as it builds them.
    obs::Registry &registry = obs::metrics();
    Value programs = Value::object();
    for (const char *field : {"count", "static_bbs", "bytes"}) {
        programs.set(field,
                     Value::number(static_cast<std::uint64_t>(
                         registry.gauge(std::string("sim.programs.") +
                                        field)
                             ->value())));
    }

    Value server = Value::object();
    server.set("version", Value::string(cli::kVersion));
    server.set("protocol", Value::number(kProtocolVersion));
    server.set("endpoint", Value::string(endpoint()));
    server.set("cache_entries",
               Value::number(std::uint64_t{cache_stats.entries}));
    server.set("cache", obs::cacheStatsJson(cache_stats, true));
    server.set("submit_memo",
               obs::cacheStatsJson(submitMemoStats(), false));
    // The warmed-state checkpoint store and the decoded-trace store,
    // process-wide (shared by every job), beside the result cache:
    // the three caches the one-pass grid pipeline rests on.
    server.set("checkpoint",
               obs::cacheStatsJson(checkpointCache().stats(), false));
    server.set("traces", traceStoreStatsJson(decodedTraces().stats()));
    server.set("programs", std::move(programs));
    server.set("max_jobs",
               Value::number(std::uint64_t{scheduler_.workers()}));

    Value v = makeFrame("status");
    v.set("server", std::move(server));
    v.set("jobs", std::move(jobs));
    return v;
}

} // namespace service
} // namespace shotgun
