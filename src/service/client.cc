#include "service/client.hh"

#include <algorithm>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "window/window_plan.hh"
#include "window/windowed_runner.hh"

namespace shotgun
{
namespace service
{

using json::Value;

ServiceClient::ServiceClient(const std::string &endpoint_spec,
                             unsigned timeout_seconds)
    : endpoint_(endpoint_spec),
      timeoutSeconds_(timeout_seconds),
      channel_(connectTo(Endpoint::parse(endpoint_spec)))
{
    if (timeoutSeconds_ != 0)
        channel_.socket().setRecvTimeout(timeoutSeconds_ * 1000u);
}

std::string
ServiceClient::recvLineOrThrow()
{
    std::string line;
    if (channel_.recvLine(line))
        return line;
    if (channel_.timedOut())
        throw SocketError(
            "server " + endpoint_ + " sent nothing for " +
            std::to_string(timeoutSeconds_) +
            "s (stalled or wedged?); raise --timeout for very long "
            "grid points");
    throw SocketError("server " + endpoint_ +
                      " closed the connection");
}

json::Value
ServiceClient::request(const json::Value &frame)
{
    return request(frame.dump());
}

json::Value
ServiceClient::request(std::string line)
{
    if (!channel_.sendLine(std::move(line)))
        throw SocketError("send to " + endpoint_ + " failed");
    Value reply = Value::parse(recvLineOrThrow());
    if (frameType(reply) == "error")
        throw ServiceError(endpoint_ + ": " +
                           reply.at("message").asString());
    return reply;
}

std::vector<SimResult>
ServiceClient::submit(
    const SubmitRequest &request_data,
    const std::function<void(const ResultEvent &)> &on_result)
{
    const Value accepted = request(encodeSubmit(request_data));
    if (frameType(accepted) != "accepted")
        throw ServiceError(endpoint_ + ": expected `accepted`, got `" +
                           frameType(accepted) + "`");
    const std::uint64_t job = accepted.at("job").asU64();
    const std::uint64_t total = accepted.at("total").asU64();
    if (total != request_data.grid.size())
        throw ServiceError(endpoint_ +
                           ": server accepted a different grid size");

    std::vector<SimResult> results(request_data.grid.size());
    std::vector<char> seen(request_data.grid.size(), 0);
    std::uint64_t received = 0;

    while (true) {
        const Value frame = Value::parse(recvLineOrThrow());
        const std::string type = frameType(frame);
        if (type == "result") {
            ResultEvent event = decodeResultEvent(frame);
            if (event.job != job)
                continue; // Another interleaved job's stream.
            if (event.index >= results.size() || seen[event.index])
                throw ServiceError(endpoint_ +
                                   ": bad result index " +
                                   std::to_string(event.index));
            results[event.index] = event.result;
            seen[event.index] = 1;
            ++received;
            if (on_result)
                on_result(event);
        } else if (type == "done") {
            const DoneEvent done = decodeDone(frame);
            if (done.job != job)
                continue;
            if (done.status != "ok") {
                const std::string what =
                    endpoint_ + ": job " + std::to_string(job) + " " +
                    done.status +
                    (done.message.empty() ? "" : ": " + done.message);
                // "error" is the job's own deterministic failure;
                // "cancelled" (e.g. the server shutting down under
                // it) is the worker's.
                if (done.status == "error")
                    throw JobFailedError(what);
                throw ServiceError(what);
            }
            if (received != results.size())
                throw ServiceError(endpoint_ + ": job " +
                                   std::to_string(job) +
                                   " done after " +
                                   std::to_string(received) + "/" +
                                   std::to_string(results.size()) +
                                   " results");
            return results;
        } else if (type == "error") {
            throw ServiceError(endpoint_ + ": " +
                               frame.at("message").asString());
        }
        // Ignore unrelated frame types (forward compatibility).
    }
}

json::Value
ServiceClient::status()
{
    Value reply = request(makeFrame("status"));
    if (frameType(reply) != "status")
        throw ServiceError(endpoint_ + ": expected `status` reply");
    return reply;
}

bool
ServiceClient::ping()
{
    return frameType(request(makeFrame("ping"))) == "pong";
}

void
ServiceClient::cancel(std::uint64_t job)
{
    Value frame = makeFrame("cancel");
    frame.set("job", Value::number(job));
    (void)request(frame);
}

void
ServiceClient::shutdownServer()
{
    Value reply = request(makeFrame("shutdown"));
    if (frameType(reply) != "bye")
        throw ServiceError(endpoint_ + ": expected `bye` reply");
}

namespace
{

/** Shared ledger of a sharded run; the mutex guards everything. */
struct ShardedState
{
    std::mutex mutex;
    std::vector<SimResult> results;
    std::vector<char> done;
    std::size_t delivered = 0;
};

std::string
describeFailure(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

/**
 * Moves the working ledger into the caller's ShardedOptions.outcomes
 * on destruction, so the per-worker accounting survives every exit
 * path -- including the rethrow when the whole fleet dies, which is
 * exactly when the caller needs the ledger to explain the failure.
 */
struct LedgerPublisher
{
    std::vector<ShardOutcome> *dest;
    std::vector<ShardOutcome> *source;

    ~LedgerPublisher()
    {
        if (dest != nullptr)
            *dest = std::move(*source);
    }
};

} // namespace

std::vector<SimResult>
submitSharded(const std::vector<std::string> &endpoints,
              const SubmitRequest &request,
              const ShardedOptions &options)
{
    if (endpoints.empty())
        throw ServiceError("no worker endpoints given");

    const std::size_t total = request.grid.size();
    const std::size_t workers = endpoints.size();

    std::vector<ShardOutcome> outcomes(workers);
    for (std::size_t w = 0; w < workers; ++w)
        outcomes[w].endpoint = endpoints[w];
    LedgerPublisher publish{options.outcomes, &outcomes};
    std::vector<char> alive(workers, 1);

    // Initial round-robin assignment: experiment i -> worker i mod W.
    std::vector<std::vector<std::size_t>> assigned(workers);
    for (std::size_t i = 0; i < total; ++i)
        assigned[i % workers].push_back(i);
    for (std::size_t w = 0; w < workers; ++w)
        outcomes[w].assigned = assigned[w].size();

    ShardedState state;
    state.results.resize(total);
    state.done.assign(total, 0);

    std::exception_ptr first_failure;

    // Each round submits every live worker's pending points on its
    // own thread. Workers that fail are marked dead and their
    // undelivered points redistributed across the survivors; the
    // loop ends when everything was delivered or everyone is dead.
    while (true) {
        std::vector<std::size_t> active;
        for (std::size_t w = 0; w < workers; ++w) {
            if (!alive[w])
                continue;
            auto &mine = assigned[w];
            mine.erase(std::remove_if(mine.begin(), mine.end(),
                                      [&state](std::size_t i) {
                                          return state.done[i] != 0;
                                      }),
                       mine.end());
            if (!mine.empty())
                active.push_back(w);
        }
        if (active.empty())
            break;

        std::vector<std::exception_ptr> failures(workers);
        std::vector<std::thread> threads;
        threads.reserve(active.size());
        for (const std::size_t w : active) {
            threads.emplace_back([&, w]() {
                try {
                    SubmitRequest shard;
                    shard.experiment = request.experiment;
                    shard.jobs = request.jobs;
                    shard.priority = request.priority;
                    // The trace ref rides on every shard so a traced
                    // submit stays one trace across workers.
                    shard.traceId = request.traceId;
                    shard.parentSpan = request.parentSpan;
                    const std::vector<std::size_t> &origin =
                        assigned[w];
                    shard.grid.reserve(origin.size());
                    for (const std::size_t i : origin)
                        shard.grid.push_back(request.grid[i]);
                    ServiceClient client(endpoints[w],
                                         options.timeoutSeconds);
                    client.submit(
                        shard, [&](const ResultEvent &event) {
                            // Harvest every streamed point as it
                            // arrives: if this worker dies later,
                            // its delivered results are kept and
                            // only the remainder is redistributed.
                            const std::size_t grid_index =
                                origin[event.index];
                            std::lock_guard<std::mutex> lock(
                                state.mutex);
                            state.results[grid_index] =
                                event.result;
                            state.done[grid_index] = 1;
                            ++outcomes[w].delivered;
                            // Under the ledger lock: onProgress /
                            // onEvent calls are serialized and the
                            // `done` counts monotone, whichever
                            // shard delivered the point.
                            if (options.onEvent)
                                options.onEvent(grid_index, event);
                            if (options.onProgress)
                                options.onProgress(++state.delivered,
                                                   total);
                        });
                } catch (...) {
                    failures[w] = std::current_exception();
                }
            });
        }
        for (auto &thread : threads)
            thread.join();

        // A deterministic job failure (a grid point whose simulation
        // throws) would fail identically on every worker:
        // redistributing it would serially "kill" the whole healthy
        // fleet before reporting the same error. Fail fast instead.
        for (const std::size_t w : active) {
            if (failures[w] == nullptr)
                continue;
            try {
                std::rethrow_exception(failures[w]);
            } catch (const JobFailedError &) {
                throw;
            } catch (...) {
                // Transport/worker death: handled below.
            }
        }

        // Bury the dead and redistribute their undelivered points.
        std::vector<std::size_t> orphans;
        for (const std::size_t w : active) {
            if (failures[w] == nullptr)
                continue;
            alive[w] = 0;
            if (first_failure == nullptr)
                first_failure = failures[w];
            outcomes[w].error = describeFailure(failures[w]);
            for (const std::size_t i : assigned[w]) {
                if (state.done[i] == 0) {
                    orphans.push_back(i);
                    ++outcomes[w].retried;
                }
            }
            assigned[w].clear();
        }
        if (orphans.empty())
            break;

        std::vector<std::size_t> survivors;
        for (std::size_t w = 0; w < workers; ++w) {
            if (alive[w])
                survivors.push_back(w);
        }
        if (survivors.empty())
            std::rethrow_exception(first_failure);
        for (std::size_t k = 0; k < orphans.size(); ++k) {
            const std::size_t w = survivors[k % survivors.size()];
            assigned[w].push_back(orphans[k]);
            ++outcomes[w].assigned;
        }
    }

    for (std::size_t i = 0; i < total; ++i) {
        if (state.done[i] == 0) {
            // Unreachable in practice: every exit above either
            // delivered everything or rethrew. Guard anyway so a
            // logic error can never stitch a half-empty vector.
            if (first_failure != nullptr)
                std::rethrow_exception(first_failure);
            throw ServiceError("sharded submit lost grid point " +
                               std::to_string(i));
        }
    }
    return std::move(state.results);
}

std::vector<SimResult>
submitSharded(
    const std::vector<std::string> &endpoints,
    const SubmitRequest &request,
    const std::function<void(std::size_t done, std::size_t total)>
        &on_progress)
{
    ShardedOptions options;
    options.onProgress = on_progress;
    return submitSharded(endpoints, request, options);
}

std::vector<SimResult>
submitWindowSharded(const std::vector<std::string> &endpoints,
                    const SubmitRequest &request,
                    unsigned window_shards,
                    const ShardedOptions &options)
{
    fatal_if(window_shards == 0,
             "window sharding needs at least 1 window");

    // Expand each experiment into its full-coverage windows; the
    // expanded grid is an ordinary submission, so assignment,
    // harvesting and dead-worker redistribution all operate on
    // windows with no new machinery.
    SubmitRequest expanded;
    expanded.experiment = request.experiment;
    expanded.jobs = request.jobs;
    expanded.priority = request.priority;
    expanded.traceId = request.traceId;
    expanded.parentSpan = request.parentSpan;
    std::vector<std::size_t> owner; // expanded index -> grid index
    for (std::size_t i = 0; i < request.grid.size(); ++i) {
        const runner::Experiment &exp = request.grid[i];
        fatal_if(exp.config.window.enabled(),
                 "experiment %s/%s already has a window; window "
                 "sharding splits whole runs",
                 exp.workload.c_str(), exp.label.c_str());
        const window::WindowPlan plan =
            window::contiguousPlan(exp.config, window_shards);
        for (runner::Experiment &sub :
             window::expandExperiment(exp, plan)) {
            owner.push_back(i);
            expanded.grid.push_back(std::move(sub));
        }
    }

    // Harvest raw deltas per expanded point (onEvent runs under the
    // sharded ledger lock: serialized, once per point).
    std::vector<SimulationDelta> deltas(expanded.grid.size());
    std::vector<char> have(expanded.grid.size(), 0);
    ShardedOptions inner = options;
    inner.onEvent = [&deltas, &have,
                     &options](std::size_t index,
                               const ResultEvent &event) {
        if (event.hasDelta) {
            SimulationDelta &delta = deltas[index];
            delta.workload = event.result.workload;
            delta.scheme = event.result.scheme;
            delta.schemeStorageBits = event.result.schemeStorageBits;
            delta.stats = event.delta;
            have[index] = 1;
        }
        if (options.onEvent)
            options.onEvent(index, event);
    };
    submitSharded(endpoints, expanded, inner);

    for (std::size_t i = 0; i < have.size(); ++i) {
        if (have[i] == 0)
            throw ServiceError(
                "window " + expanded.grid[i].label + " of \"" +
                expanded.grid[i].workload +
                "\" came back without its raw delta (worker too "
                "old for windowed results?)");
    }

    // Stitch each experiment's windows, in window order.
    std::vector<SimResult> results(request.grid.size());
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < request.grid.size(); ++i) {
        std::vector<SimulationDelta> windows;
        windows.reserve(window_shards);
        while (cursor < owner.size() && owner[cursor] == i)
            windows.push_back(std::move(deltas[cursor++]));
        results[i] = window::stitchWindows(windows);
    }
    return results;
}

} // namespace service
} // namespace shotgun
