#include "fleet/worker.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/client.hh"
#include "sim/checkpoint.hh"

namespace shotgun
{
namespace fleet
{

using json::Value;
using service::LineChannel;

namespace
{

/**
 * Reconnect delay: kFirstRetryMs after a success, doubling on each
 * failure up to the heartbeat period.
 */
class Backoff
{
  public:
    explicit Backoff(unsigned cap_ms) : cap_(cap_ms) { reset(); }

    /** The delay before the next attempt; doubles the one after. */
    unsigned next()
    {
        const unsigned delay = delay_;
        delay_ = std::min(cap_, delay_ * 2);
        return delay;
    }

    void reset() { delay_ = std::min(cap_, kFirstRetryMs); }

  private:
    static constexpr unsigned kFirstRetryMs = 5;

    unsigned cap_;
    unsigned delay_ = 0;
};

} // namespace

FleetWorker::FleetWorker(service::SimServer &server,
                         WorkerOptions options)
    : server_(server), options_(std::move(options)),
      coordinator_(service::Endpoint::parse(options_.coordinator))
{
    if (options_.slots == 0)
        options_.slots = 1;
    if (options_.heartbeatMs == 0)
        options_.heartbeatMs = 1000;
}

FleetWorker::~FleetWorker()
{
    stop();
}

void
FleetWorker::start()
{
    if (started_.exchange(true))
        return;
    threads_.emplace_back([this]() { controlLoop(); });
    for (unsigned i = 0; i < options_.slots; ++i)
        threads_.emplace_back([this, i]() { slotLoop(i); });
}

void
FleetWorker::stop()
{
    if (!started_.load())
        return;
    std::vector<std::shared_ptr<LineChannel>> live;
    {
        // Set under the mutex, so a slot between its wait predicate
        // and its wait cannot miss the notify below.
        std::lock_guard<std::mutex> lock(mutex_);
        stop_.store(true);
        for (auto &weak : channels_) {
            if (auto channel = weak.lock())
                live.push_back(std::move(channel));
        }
    }
    // shutdown(2) unblocks readers parked in recv on the
    // coordinator; the channel objects stay alive through the
    // shared_ptrs their loops hold.
    for (auto &channel : live)
        channel->socket().shutdownBoth();
    stopCv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
    threads_.clear();
}

std::shared_ptr<LineChannel>
FleetWorker::adoptChannel(service::Socket sock)
{
    auto channel = std::make_shared<LineChannel>(std::move(sock));
    std::lock_guard<std::mutex> lock(mutex_);
    channels_.erase(
        std::remove_if(channels_.begin(), channels_.end(),
                       [](const std::weak_ptr<LineChannel> &w) {
                           return w.expired();
                       }),
        channels_.end());
    channels_.push_back(channel);
    // A stop() racing this adoption may have missed the new
    // channel; close it here so the caller's loop exits promptly.
    if (stop_.load())
        channel->socket().shutdownBoth();
    return channel;
}

bool
FleetWorker::sleepMs(unsigned ms)
{
    std::unique_lock<std::mutex> lock(mutex_);
    stopCv_.wait_for(lock, std::chrono::milliseconds(ms),
                     [this]() { return stop_.load(); });
    return !stop_.load();
}

void
FleetWorker::log(const std::string &line)
{
    if (options_.log != nullptr)
        *options_.log << "fleet-worker: " << line << std::endl;
}

void
FleetWorker::controlLoop()
{
    Backoff backoff(options_.heartbeatMs);
    while (!stop_.load()) {
        try {
            auto channel =
                adoptChannel(service::connectTo(coordinator_));
            // Acks are tiny and immediate; a coordinator that stays
            // silent for several heartbeat periods is wedged and
            // the reconnect path should take over.
            channel->socket().setRecvTimeout(
                std::max(2000u, options_.heartbeatMs * 4));

            service::RegisterRequest reg;
            reg.name = options_.name;
            reg.slots = options_.slots;
            if (!channel->sendLine(service::encodeFrame(reg)))
                throw service::SocketError("register send failed");
            std::string line;
            if (!channel->recvLine(line))
                throw service::SocketError("no register ack");
            const Value ack = Value::parse(line);
            if (service::frameType(ack) != "ack")
                throw service::ServiceError(
                    "register rejected: " + line);
            const std::uint64_t id = ack.at("worker").asU64();
            {
                // Under the mutex, so a slot cannot check the id and
                // then sleep through this notify.
                std::lock_guard<std::mutex> lock(mutex_);
                workerId_.store(id);
            }
            stopCv_.notify_all();
            backoff.reset();
            log("registered as worker " + std::to_string(id) + " at " +
                coordinator_.str());

            // The coordinator only answers heartbeats, so between
            // them the socket turns readable only when the
            // coordinator closes it or stop() shuts it down: a
            // restarted coordinator is noticed at once, not a
            // heartbeat later.
            while (!channel->socket().waitReadable(options_.heartbeatMs)) {
                service::HeartbeatFrame hb;
                hb.worker = workerId_.load();
                hb.completed = completed_.load();
                const MemoCacheStats stats = server_.cacheStats();
                hb.cache = {stats.hits, stats.misses, stats.backendHits};
                const MemoCacheStats cp = checkpointCache().stats();
                hb.checkpoint = {cp.hits, cp.misses};
                // Per-phase simulation time, process-lifetime totals
                // from the always-on registry counters: the
                // coordinator folds these into --fleet-status's
                // per-phase breakdown table.
                obs::Registry &registry = obs::metrics();
                hb.phase = {
                    registry.counter("sim.phase.decode_us")->value(),
                    registry.counter("sim.phase.warmup_us")->value(),
                    registry.counter("sim.phase.restore_us")->value(),
                    registry.counter("sim.phase.measure_us")->value(),
                    registry.counter("sim.points")->value()};
                // Measure-latency percentiles from the per-point
                // histogram the simulator records; stays all-zero
                // (member omitted on the wire) until the first
                // point finishes.
                for (const obs::MetricSample &s :
                     registry.snapshot()) {
                    if (s.kind != obs::MetricSample::Kind::Histogram ||
                        s.name != "sim.phase.measure_us_hist")
                        continue;
                    hb.percentiles = {obs::histogramQuantile(s, 0.50),
                                      obs::histogramQuantile(s, 0.95),
                                      obs::histogramQuantile(s, 0.99)};
                }
                if (!channel->sendLine(service::encodeFrame(hb)))
                    break;
                if (!channel->recvLine(line))
                    break;
                // The reply is an ack (or an error frame we can only
                // log); either way the connection is alive.
            }
        } catch (const std::exception &e) {
            if (!stop_.load())
                log(std::string("control connection lost: ") +
                    e.what());
        }
        // Stale id: slots attached under it are torn down by the
        // coordinator (their worker died with the control conn), and
        // their loops re-attach once a new id is assigned.
        workerId_.store(0);
        if (!sleepMs(backoff.next()))
            break;
    }
}

void
FleetWorker::slotLoop(unsigned slot_index)
{
    service::TraceProbeCache probed;
    Backoff backoff(options_.heartbeatMs);
    while (!stop_.load()) {
        std::uint64_t id = 0;
        {
            // Not registered (yet, or between reconnects): the
            // control thread's registration wakes this wait.
            std::unique_lock<std::mutex> lock(mutex_);
            stopCv_.wait(lock, [this]() {
                return stop_.load() || workerId_.load() != 0;
            });
            if (stop_.load())
                break;
            id = workerId_.load();
        }
        try {
            auto channel =
                adoptChannel(service::connectTo(coordinator_));
            Value attach = service::makeFrame("attach");
            attach.set("worker", Value::number(id));
            if (!channel->sendLine(attach.dump()))
                throw service::SocketError("attach send failed");
            std::string line;
            if (!channel->recvLine(line))
                throw service::SocketError("no attach ack");
            const Value ack = Value::parse(line);
            // A stale id (the coordinator restarted or declared this
            // worker dead) is rejected; back off until the control
            // thread registers again.
            if (service::frameType(ack) != "ack")
                throw service::ServiceError("attach rejected: " +
                                            line);
            backoff.reset();

            // Steal -> work -> result, parked on the coordinator
            // while the queue is empty. No receive deadline: an idle
            // fleet legitimately sits here for hours; stop() and
            // coordinator death both surface as a closed socket.
            for (;;) {
                if (!channel->sendLine(
                        service::makeFrame("steal").dump()))
                    break;
                if (!channel->recvLine(line))
                    break;
                const Value frame = Value::parse(line);
                const std::string type = service::frameType(frame);
                if (type != "work")
                    continue; // e.g. an error frame; keep stealing.
                const auto item =
                    service::decodeFrame<service::WorkItem>(frame);

                service::WorkResult out;
                out.task = item.task;
                std::string error;
                if (!service::validateExperimentTrace(
                        item.experiment, probed, error)) {
                    out.ok = false;
                    out.message = error;
                } else {
                    try {
                        out.fingerprint = service::configFingerprint(
                            item.experiment.config);
                        bool was_cached = false;
                        // A trace-carrying work item (or a worker
                        // running with --trace-out): record this
                        // point's phase spans and timing, ship them
                        // back inside the result frame. computeCached
                        // runs the simulation on this thread, so the
                        // thread-local context covers it.
                        obs::SpanCollector collector;
                        obs::PointTiming timing;
                        obs::TraceContext trace_ctx;
                        std::unique_ptr<obs::ScopedTraceContext>
                            trace_scope;
                        if (item.traceId != 0 ||
                            obs::tracer().enabled()) {
                            trace_ctx.traceId =
                                item.traceId != 0
                                    ? item.traceId
                                    : obs::tracer().defaultTraceId();
                            trace_ctx.parentSpan = item.parentSpan;
                            trace_ctx.collector = &collector;
                            trace_ctx.timing = &timing;
                            trace_ctx.lane =
                                "slot-" + std::to_string(slot_index);
                            trace_scope.reset(
                                new obs::ScopedTraceContext(
                                    &trace_ctx));
                        }
                        auto value = server_.computeCached(
                            out.fingerprint, item.experiment,
                            &was_cached);
                        trace_scope.reset();
                        out.spans = collector.take();
                        if (timing.any()) {
                            out.hasTiming = true;
                            out.timing = timing;
                        }
                        out.cached = was_cached;
                        out.result = *value;
                    } catch (const std::exception &e) {
                        out.ok = false;
                        out.message = e.what();
                    }
                }
                if (!channel->sendLine(service::encodeFrame(out)))
                    break;
                if (out.ok)
                    completed_.fetch_add(1);
            }
        } catch (const std::exception &e) {
            if (!stop_.load())
                log("slot " + std::to_string(slot_index) +
                    " connection lost: " + e.what());
        }
        if (!sleepMs(backoff.next()))
            break;
    }
}

} // namespace fleet
} // namespace shotgun
