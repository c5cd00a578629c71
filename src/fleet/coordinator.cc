#include "fleet/coordinator.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/cli.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace shotgun
{
namespace fleet
{

using json::Value;
using service::CodecError;
using service::makeError;
using service::makeFrame;
using Clock = std::chrono::steady_clock;

namespace
{

std::uint64_t
elapsedMs(Clock::time_point since, Clock::time_point now)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - since)
            .count());
}

} // namespace

struct FleetCoordinator::Job : service::DaemonJob
{
    using DaemonJob::DaemonJob;

    std::uint64_t priority = 1;
    std::vector<std::shared_ptr<const SimResult>> outcomes;
    std::vector<char> cachedFlag; ///< Served from a cache, per index.
    bool cancelled = false; ///< Cancelled before its points queued.

    /**
     * Tracing: non-zero when the submit carried a trace id (or the
     * coordinator runs with --trace-out and stamps its own). The
     * per-point vectors hold spans/timing shipped back by workers,
     * relayed to the client in result frames; sized only for traced
     * jobs so untraced jobs pay nothing. The job's points all queue
     * at admission, which the "queued" spans start from.
     */
    std::uint64_t traceId = 0;
    std::uint64_t traceParent = 0;
    std::vector<std::vector<obs::SpanRecord>> pointSpans;
    std::vector<obs::PointTiming> pointTimings;
    std::vector<char> pointHasTiming;
    std::uint64_t queuedWallUs = 0;
    Clock::time_point queuedAt;
};

struct FleetCoordinator::Worker
{
    std::uint64_t id = 0;
    std::string name;
    std::uint64_t slots = 1; ///< Advertised concurrent slots.
    Clock::time_point registeredAt;
    Clock::time_point lastHeartbeat;
    std::uint64_t completed = 0; ///< Results accepted from it.
    service::HeartbeatFrame stats; ///< Last reported cache counters.
    bool dead = false;
    std::shared_ptr<Connection> control;
    std::vector<std::shared_ptr<Slot>> attached;
};

struct FleetCoordinator::Slot
{
    std::shared_ptr<Connection> conn;
    std::shared_ptr<Worker> worker;
    runner::Dispatcher::Dispatch work; ///< In flight; 0 ticket: none.
    bool parked = false;               ///< Waiting in parked_ for work.
};

FleetCoordinator::FleetCoordinator(const std::string &endpoint_spec,
                                   CoordinatorOptions options)
    : Daemon(endpoint_spec, "shotgun-coord", options.log,
             options.cacheBytes),
      options_(options)
{
    if (!options_.cacheDir.empty()) {
        disk_.reset(new DiskResultCache(options_.cacheDir,
                                        options_.cacheDirMaxBytes));
        disk_->attachTo(*this);
    }
    monitor_ = std::thread([this]() { monitorLoop(); });
}

FleetCoordinator::~FleetCoordinator()
{
    requestShutdown();
    if (monitor_.joinable())
        monitor_.join();
}

std::size_t
FleetCoordinator::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t live = 0;
    for (const auto &entry : workers_) {
        if (!entry.second->dead)
            ++live;
    }
    return live;
}

std::size_t
FleetCoordinator::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dispatcher_.queued();
}

std::string
FleetCoordinator::banner() const
{
    return "heartbeat " + std::to_string(options_.heartbeatIntervalMs) +
           "ms x" + std::to_string(options_.heartbeatMissLimit);
}

void
FleetCoordinator::onShutdown()
{
    monitorCv_.notify_all();
}

void
FleetCoordinator::drain()
{
    std::vector<std::shared_ptr<Job>> open;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &entry : jobs_) {
            if (!entry.second->doneSent) {
                open.push_back(std::static_pointer_cast<Job>(entry.second));
                dispatcher_.cancel(entry.first);
            }
        }
    }
    for (auto &job : open)
        emitJob(job);
}

bool
FleetCoordinator::adoptConnection(
    const std::shared_ptr<Connection> &conn, const std::string &type,
    const json::Value &frame)
{
    if (type == "register")
        runWorkerControl(
            conn, service::decodeFrame<service::RegisterRequest>(frame));
    else if (type == "attach")
        runWorkerSlot(conn, frame);
    else
        return false;
    return true;
}

bool
FleetCoordinator::cancelJob(std::uint64_t id)
{
    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job = findJobLocked<Job>(id);
        if (job == nullptr)
            return false;
        job->cancelled = true;
        dispatcher_.cancel(id);
    }
    // In-flight points finish on their workers; queued ones are gone.
    // The `done` frame reports cancelled once the last in-flight
    // point returns.
    emitJob(job);
    return true;
}

void
FleetCoordinator::handleSubmit(
    const std::shared_ptr<Connection> &conn,
    std::shared_ptr<const service::DecodedSubmit> submit)
{
    const service::SubmitRequest &request = submit->request;
    if (stopping())
        throw CodecError("coordinator is shutting down");

    // Traces are NOT validated here: the coordinator need not share
    // a filesystem with its workers. Workers validate each point
    // before simulating and report a failure as an error result,
    // which fails the job -- same outcome as a SimServer rejecting
    // the submit, just detected where the file lives.
    auto job = std::make_shared<Job>(std::move(submit));
    job->priority = std::max<std::uint64_t>(1, request.priority);
    job->outcomes.resize(job->total);
    job->cachedFlag.assign(job->total, 0);

    // The client's trace id wins; a coordinator running with
    // --trace-out stamps its own onto bare submits so its workers'
    // spans still land in one coherent trace.
    job->traceId = request.traceId != 0
                       ? request.traceId
                       : (obs::tracer().enabled()
                              ? obs::tracer().defaultTraceId()
                              : 0);
    job->traceParent = request.parentSpan;
    if (job->traceId != 0) {
        job->pointSpans.resize(job->total);
        job->pointTimings.resize(job->total);
        job->pointHasTiming.assign(job->total, 0);
        job->queuedWallUs = obs::wallClockUs();
        job->queuedAt = Clock::now();
    }

    // Cache prefill (memory, then disk): a point seen before is
    // answered without touching any worker. tryGet never runs a
    // simulation, so doing it on the reader thread is cheap.
    std::vector<std::uint64_t> cost(job->total);
    for (std::size_t i = 0; i < job->total; ++i) {
        job->outcomes[i] = cache_.tryGet(job->submit->fingerprints[i]);
        job->cachedFlag[i] = job->outcomes[i] != nullptr;
        job->cachedCount += job->cachedFlag[i];
        cost[i] = request.grid[i].config.streamInstructions();
    }
    runner::Dispatcher::Plan plan = runner::Dispatcher::plan(cost);

    // `accepted` goes on the wire before any point can complete (and
    // before the cache-hit prefix is streamed).
    admit(conn, job);
    log("job " + std::to_string(job->id) + " accepted: " +
        request.experiment + ", " + std::to_string(job->total) +
        " points (" + std::to_string(job->cachedCount.load()) +
        " cached), priority " + std::to_string(job->priority));

    SendBatch sends;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // No budget: every slot may run the job's points.
        dispatcher_.submit(job->id, std::move(plan), 0, job->priority);
        for (std::size_t i = 0; i < job->total; ++i) {
            if (job->cachedFlag[i])
                dispatcher_.prefill(job->id, i);
        }
        job->running = job->cachedCount != 0;
        // A cancel that raced the admission (or shutdown) leaves
        // nothing queued; the `done` frame below reports cancelled
        // over whatever the cache prefilled.
        if (job->cancelled || stopping())
            dispatcher_.cancel(job->id);
        pumpLocked(sends);
    }
    sendBatch(sends);
    emitJob(job);
}

void
FleetCoordinator::pumpLocked(SendBatch &sends)
{
    while (!parked_.empty()) {
        const runner::Dispatcher::Dispatch work = dispatcher_.pick();
        if (work.ticket == 0)
            return;
        auto slot = parked_.front();
        parked_.pop_front();
        slot->parked = false;
        slot->work = work;
        Job &job = *findJobLocked<Job>(work.job);
        job.running = true;
        service::WorkItem item;
        item.task = work.ticket;
        item.experiment = job.submit->request.grid[work.index];
        item.traceId = job.traceId;
        item.parentSpan = job.traceParent;
        // The coordinator's own contribution to the trace: how long
        // the point sat in the fleet queue before a slot stole it.
        if (job.traceId != 0 && obs::tracer().enabled())
            obs::tracer().record(obs::spanUntilNow(
                job.traceId, job.traceParent, "queued", "fleet", "queue",
                job.queuedWallUs, job.queuedAt));
        sends.emplace_back(slot->conn, service::encodeFrame(item));
    }
}

void
FleetCoordinator::sendBatch(SendBatch &sends)
{
    // A failed send means the slot's socket died; its reader will
    // hit EOF and requeue the point, so the failure needs no handling
    // here.
    for (auto &send : sends)
        send.first->sendLine(std::move(send.second));
    sends.clear();
}

void
FleetCoordinator::emitJob(const std::shared_ptr<Job> &job)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto conn = job->owner; // Copied under the lock; may be null.
    for (bool holding = false;;) {
        const runner::Dispatcher::Run run =
            dispatcher_.takeEmit(job->id, holding);
        if (run.empty())
            break;
        holding = true;
        lock.unlock();
        const bool trace_emit =
            job->traceId != 0 && obs::tracer().enabled();
        const std::uint64_t emit_start_us =
            trace_emit ? obs::wallClockUs() : 0;
        const Clock::time_point emit_start = Clock::now();
        for (std::size_t i = run.from; conn != nullptr && i < run.to;
             ++i) {
            service::ResultEvent event;
            event.job = job->id;
            event.index = i;
            event.cached = job->cachedFlag[i] != 0;
            const runner::Experiment &exp = job->submit->request.grid[i];
            event.workload = exp.workload;
            event.label = exp.label;
            event.fingerprint = job->submit->fingerprints[i];
            event.result = *job->outcomes[i];
            if (job->traceId != 0) {
                event.spans = job->pointSpans[i];
                if (job->pointHasTiming[i]) {
                    event.hasTiming = true;
                    event.timing = job->pointTimings[i];
                }
            }
            conn->sendLine(service::encodeFrame(event));
        }
        job->completed += run.to - run.from;
        if (trace_emit)
            obs::tracer().record(obs::spanUntilNow(
                job->traceId, job->traceParent, "emit", "fleet", "emit",
                emit_start_us, emit_start));
        lock.lock();
    }
    runner::Dispatcher::Outcome outcome;
    if (!dispatcher_.finish(job->id, outcome))
        return;
    lock.unlock();
    finishJob(*job, outcome);
}

void
FleetCoordinator::runWorkerControl(
    const std::shared_ptr<Connection> &conn,
    const service::RegisterRequest &reg)
{
    auto worker = std::make_shared<Worker>();
    worker->name = reg.name;
    worker->slots = reg.slots;
    worker->registeredAt = Clock::now();
    worker->lastHeartbeat = worker->registeredAt;
    worker->control = conn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        worker->id = nextWorkerId_++;
        workers_.emplace(worker->id, worker);
    }
    Value ack = makeFrame("ack");
    ack.set("worker", Value::number(worker->id));
    conn->sendFrame(ack);
    log("worker " + std::to_string(worker->id) + " (" + worker->name +
        ") registered, " + std::to_string(reg.slots) + " slots");

    frameLoop(*conn, [&](const std::string &type, const Value &frame,
                         Value &reply) {
        if (type != "heartbeat") {
            reply = makeError("unexpected frame type \"" + type +
                              "\" on a control connection");
            return true;
        }
        const auto hb =
            service::decodeFrame<service::HeartbeatFrame>(frame);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            worker->lastHeartbeat = Clock::now();
            worker->stats = hb;
        }
        reply = makeFrame("ack");
        return true;
    });
    declareDead(worker->id, "control connection closed");
}

void
FleetCoordinator::runWorkerSlot(
    const std::shared_ptr<Connection> &conn, const json::Value &frame)
{
    auto slot = std::make_shared<Slot>();
    slot->conn = conn;
    {
        const std::uint64_t worker_id = frame.at("worker").asU64();
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = workers_.find(worker_id);
        if (it == workers_.end() || it->second->dead)
            throw CodecError("unknown worker " +
                             std::to_string(worker_id) +
                             " (register first)");
        slot->worker = it->second;
        it->second->attached.push_back(slot);
    }
    conn->sendFrame(makeFrame("ack"));

    frameLoop(*conn, [&](const std::string &type, const Value &work_frame,
                         Value &reply) {
        if (type == "steal") {
            SendBatch sends;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!slot->parked && slot->work.ticket == 0) {
                    slot->parked = true;
                    parked_.push_back(slot);
                }
                pumpLocked(sends);
            }
            sendBatch(sends);
        } else if (type == "result") {
            handleWorkResult(slot, work_frame);
        } else {
            reply = makeError("unexpected frame type \"" + type +
                              "\" on a work connection");
        }
        return true;
    });

    // Slot teardown: whatever was in flight here queues again for the
    // survivors -- unless it already completed (late results were
    // accepted above) or the daemon is shutting down.
    std::shared_ptr<Job> job;
    SendBatch sends;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = parked_.begin(); it != parked_.end(); ++it) {
            if (it->get() == slot.get()) {
                parked_.erase(it);
                break;
            }
        }
        slot->parked = false;
        if (slot->work.ticket != 0) {
            job = findJobLocked<Job>(slot->work.job);
            if (stopping())
                dispatcher_.cancel(job->id);
            else
                log("task " + std::to_string(slot->work.ticket) +
                    " requeued (worker slot lost)");
            dispatcher_.lose(slot->work.ticket);
            slot->work = {};
        }
        if (slot->worker != nullptr) {
            auto &attached = slot->worker->attached;
            attached.erase(
                std::remove(attached.begin(), attached.end(), slot),
                attached.end());
        }
        pumpLocked(sends);
    }
    sendBatch(sends);
    if (job != nullptr)
        emitJob(job);
}

void
FleetCoordinator::handleWorkResult(const std::shared_ptr<Slot> &slot,
                                   const json::Value &frame)
{
    auto wr = service::decodeFrame<service::WorkResult>(frame);
    std::shared_ptr<Job> job;
    std::shared_ptr<const SimResult> value;
    std::string cache_key;
    std::vector<obs::SpanRecord> tracer_spans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (wr.task == 0 || wr.task != slot->work.ticket)
            return; // Not what this slot runs: a stale copy.
        const runner::Dispatcher::Dispatch work = slot->work;
        slot->work = {};
        job = findJobLocked<Job>(work.job);
        slot->worker->completed += 1;
        if (!wr.ok) {
            dispatcher_.fail(work.ticket, std::make_exception_ptr(
                                              std::runtime_error(wr.message)));
        } else {
            value = std::make_shared<const SimResult>(
                std::move(wr.result));
            job->outcomes[work.index] = value;
            cache_key = job->submit->fingerprints[work.index];
            if (wr.cached) {
                job->cachedFlag[work.index] = 1;
                ++job->cachedCount;
            }
            // Worker spans: into the coordinator's own trace file
            // (--trace-out merges the whole fleet into one JSON) and
            // into the job for relay to the client.
            if (obs::tracer().enabled() && !wr.spans.empty())
                tracer_spans = wr.spans;
            if (job->traceId != 0) {
                job->pointSpans[work.index] = std::move(wr.spans);
                if (wr.hasTiming) {
                    job->pointHasTiming[work.index] = 1;
                    job->pointTimings[work.index] = wr.timing;
                }
            }
            dispatcher_.complete(work.ticket);
        }
    }
    if (!tracer_spans.empty())
        obs::tracer().record(std::move(tracer_spans));
    // Outside the registry mutex: put() write-throughs to disk.
    if (value != nullptr)
        cache_.put(cache_key, std::move(value));
    emitJob(job);
}

void
FleetCoordinator::declareDead(std::uint64_t worker_id,
                              const std::string &reason)
{
    std::vector<std::shared_ptr<Connection>> conns;
    std::string name;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = workers_.find(worker_id);
        if (it == workers_.end() || it->second->dead)
            return;
        auto worker = it->second;
        worker->dead = true;
        name = worker->name;
        conns.push_back(worker->control);
        for (const auto &slot : worker->attached)
            conns.push_back(slot->conn);
        workers_.erase(it);
    }
    log("worker " + std::to_string(worker_id) + " (" + name +
        ") dead: " + reason);
    // Shutting the sockets down unblocks the slot readers, whose
    // teardown requeues whatever this worker had in flight.
    for (auto &conn : conns)
        conn->channel.socket().shutdownBoth();
}

void
FleetCoordinator::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto tick = std::chrono::milliseconds(
        std::max(1u, options_.heartbeatIntervalMs / 2));
    while (!stopping()) {
        monitorCv_.wait_for(lock, tick,
                            [this]() { return stopping(); });
        if (stopping())
            break;
        const Clock::time_point now = Clock::now();
        const std::uint64_t limit_ms =
            std::uint64_t{options_.heartbeatIntervalMs} *
            options_.heartbeatMissLimit;
        std::vector<std::uint64_t> expired;
        for (const auto &entry : workers_) {
            if (!entry.second->dead &&
                elapsedMs(entry.second->lastHeartbeat, now) >
                    limit_ms)
                expired.push_back(entry.first);
        }
        if (expired.empty())
            continue;
        lock.unlock();
        for (std::uint64_t id : expired)
            declareDead(id, "missed " +
                                std::to_string(
                                    options_.heartbeatMissLimit) +
                                " heartbeats");
        lock.lock();
    }
}

json::Value
FleetCoordinator::statusFrame()
{
    const Clock::time_point now = Clock::now();
    Value jobs;
    Value workers = Value::array();
    std::uint64_t queue_depth = 0;
    std::uint64_t inflight = 0;
    std::uint64_t parked = 0;
    std::uint64_t total_slots = 0;
    std::uint64_t checkpoint_hits = 0;
    std::uint64_t checkpoint_misses = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs = jobStatusesLocked();
        for (const auto &entry : workers_) {
            const Worker &worker = *entry.second;
            service::WorkerStatus status;
            status.id = worker.id;
            status.name = worker.name;
            status.slots = worker.slots;
            for (const auto &slot : worker.attached) {
                if (slot->work.ticket != 0)
                    ++status.inflight;
            }
            status.completed = worker.completed;
            status.alive = !worker.dead;
            status.heartbeatAgeMs =
                elapsedMs(worker.lastHeartbeat, now);
            const std::uint64_t up_ms =
                elapsedMs(worker.registeredAt, now);
            status.throughput =
                up_ms == 0 ? 0.0
                           : static_cast<double>(worker.completed) *
                                 1000.0 /
                                 static_cast<double>(up_ms);
            status.cache = worker.stats.cache;
            status.checkpoint = worker.stats.checkpoint;
            status.phase = worker.stats.phase;
            status.percentiles = worker.stats.percentiles;
            checkpoint_hits += status.checkpoint.hits;
            checkpoint_misses += status.checkpoint.misses;
            inflight += status.inflight;
            total_slots += worker.slots;
            workers.push(encodeTree(status));
        }
        queue_depth = dispatcher_.queued();
        parked = parked_.size();
    }

    const MemoCacheStats cache_stats = cache_.stats();

    Value fleet = Value::object();
    fleet.set("workers", std::move(workers));
    fleet.set("queue_depth", Value::number(queue_depth));
    fleet.set("inflight", Value::number(inflight));
    fleet.set("parked_slots", Value::number(parked));
    fleet.set("total_slots", Value::number(total_slots));
    // Fleet-wide warmed-state checkpoint reuse, summed over the
    // workers' last heartbeats (the coordinator itself never
    // simulates, so it has no local checkpoint store to report).
    fleet.set("checkpoint_hits", Value::number(checkpoint_hits));
    fleet.set("checkpoint_misses", Value::number(checkpoint_misses));

    Value server = Value::object();
    server.set("version", Value::string(cli::kVersion));
    server.set("protocol",
               Value::number(service::kProtocolVersion));
    server.set("endpoint", Value::string(endpoint()));
    server.set("role", Value::string("coordinator"));
    server.set("cache_entries",
               Value::number(std::uint64_t{cache_stats.entries}));
    server.set("cache", obs::cacheStatsJson(cache_stats, true));
    server.set("submit_memo",
               obs::cacheStatsJson(submitMemoStats(), false));
    server.set("max_jobs", Value::number(total_slots));

    Value v = makeFrame("status");
    v.set("server", std::move(server));
    v.set("jobs", std::move(jobs));
    v.set("fleet", std::move(fleet));
    return v;
}

} // namespace fleet
} // namespace shotgun
