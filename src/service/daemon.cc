#include "service/daemon.hh"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <utility>

#include "common/cli.hh"
#include "trace/presets.hh"

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
resultCacheBytes(const std::string &fingerprint, const SimResult &result)
{
    return fingerprint.size() + sizeof(SimResult) +
           result.workload.size() + result.scheme.size();
}

/** The daemons keep this many finished jobs for `status`. */
constexpr std::size_t kRetainedJobs = 64;

/**
 * Byte budget of the submit memo. A 4-point grid's frame and decode
 * are charged about 20 KB, so this holds some 800 distinct grids.
 */
constexpr std::size_t kSubmitMemoBytes = 16u << 20;

/**
 * How encodeFrame's submit frames open. A line that parses and opens so is
 * a submit frame (duplicate keys are rejected), so the memo can be
 * consulted before the line is parsed.
 */
constexpr std::string_view kSubmitOpening = R"({"type":"submit")";

/**
 * Accounted size of one memoized submit: the frame bytes twice (the
 * map key and the LRU list each hold a copy) plus the decoded grid.
 * Crude like resultCacheBytes, and monotone in the real footprint.
 */
std::size_t
submitMemoBytes(const std::string &line, const DecodedSubmit &submit)
{
    std::size_t bytes = 2 * line.size() + sizeof(DecodedSubmit);
    for (const runner::Experiment &exp : submit.request.grid)
        bytes += sizeof(exp) + exp.workload.size() + exp.label.size();
    for (const std::string &fp : submit.fingerprints)
        bytes += sizeof(fp) + fp.size();
    return bytes;
}

/**
 * True when decoding `frame` read trace headers: a grid point names
 * its workload by a compact `trace:<path>` spec, whose preset is that
 * file's header as it is now. Such a decode is not a function of the
 * frame's bytes.
 */
bool
readsTraceFiles(const Value &frame)
{
    for (const Value &point : frame.at("grid").items()) {
        const Value &workload = point.at("config").at("workload");
        if (workload.isString() &&
            isTraceWorkloadSpec(workload.asString()))
            return true;
    }
    return false;
}

} // namespace

bool
Connection::sendLine(std::string line)
{
    std::lock_guard<std::mutex> lock(writeMutex);
    return channel.sendLine(std::move(line));
}

Daemon::Daemon(const std::string &endpoint_spec, std::string name,
               std::ostream *log, std::size_t cache_bytes)
    : cache_(cache_bytes, resultCacheBytes), name_(std::move(name)),
      log_(log), listener_(Endpoint::parse(endpoint_spec)),
      submitMemo_(kSubmitMemoBytes, submitMemoBytes)
{
}

std::string
Daemon::endpoint() const
{
    return listener_.boundEndpoint().str();
}

MemoCacheStats
Daemon::cacheStats() const
{
    return cache_.stats();
}

MemoCacheStats
Daemon::submitMemoStats() const
{
    return submitMemo_.stats();
}

void
Daemon::setCacheBackend(ResultCache::LoadFn load,
                        ResultCache::StoreFn store)
{
    cache_.setBackend(std::move(load), std::move(store));
}

void
Daemon::log(const std::string &line)
{
    if (log_ != nullptr)
        *log_ << name_ << ": " << line << std::endl;
}

void
Daemon::serve()
{
    log("listening on " + endpoint() + " (version " + cli::kVersion +
        ", " + banner() + ")");

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
        // registration could not wake this reader; re-check so it
        // cannot outlive the accept loop.
        if (stop_.load())
            conn->channel.socket().shutdownRead();
        auto done = std::make_shared<std::atomic<bool>>(false);
        readers.push_back(
            {std::thread([this, conn, done]() {
                 serveConnection(conn);
                 done->store(true);
             }),
             done});
    }

    // Close the listener (a peer still queued in its backlog sees EOF
    // now, not at its deadline), join every reader (no thread can
    // admit a job afterwards), then let the daemon finish its jobs.
    listener_.close();
    reap(true);
    drain();
    log("shut down");
}

void
Daemon::requestShutdown()
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
    // Read side only: the blocked readers wake and exit, while a
    // job's final `done` frame can still be written to its client.
    for (auto &conn : live)
        conn->channel.socket().shutdownRead();
    onShutdown();
    if (!was_stopped)
        log("shutdown requested");
}

void
Daemon::frameLoop(Connection &conn, const FrameHandler &handle)
{
    lineLoop(conn, [&handle](const std::string &line, Value &reply) {
        const Value frame = Value::parse(line);
        return handle(frameType(frame), frame, reply);
    });
}

void
Daemon::lineLoop(Connection &conn, const LineHandler &handle)
{
    std::string line;
    while (conn.channel.recvLine(line)) {
        Value reply;
        bool more = true;
        try {
            more = handle(line, reply);
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
        if (!reply.isNull() && !conn.sendFrame(reply))
            break;
        if (!more)
            break;
    }
}

bool
Daemon::adoptConnection(const std::shared_ptr<Connection> &,
                        const std::string &, const json::Value &)
{
    return false;
}

std::shared_ptr<const DecodedSubmit>
Daemon::decodeSubmitFrame(const Value &frame, const std::string *key)
{
    auto submit = std::make_shared<DecodedSubmit>();
    submit->request = decodeFrame<SubmitRequest>(frame);
    submit->fingerprints.reserve(submit->request.grid.size());
    for (const runner::Experiment &exp : submit->request.grid)
        submit->fingerprints.push_back(configFingerprint(exp.config));
    // A traced frame carries a fresh parent span id, so its bytes
    // never repeat.
    if (key != nullptr && submit->request.traceId == 0 &&
        !readsTraceFiles(frame))
        submitMemo_.put(*key, submit);
    return submit;
}

void
Daemon::serveConnection(const std::shared_ptr<Connection> &conn)
{
    bool first = true;
    lineLoop(*conn, [&](const std::string &line, Value &reply) {
        // Submits in encodeFrame's layout are looked up by their
        // bytes before parsing: one decoded before skips parsing,
        // decoding and fingerprinting. Admission runs every time.
        const bool keyed =
            line.compare(0, kSubmitOpening.size(), kSubmitOpening) == 0;
        if (keyed) {
            if (auto submit = submitMemo_.tryGet(line)) {
                first = false;
                handleSubmit(conn, std::move(submit));
                return true;
            }
        }
        const Value frame = Value::parse(line);
        const std::string type = frameType(frame);
        const bool opening = std::exchange(first, false);
        if (type == "submit") {
            handleSubmit(conn,
                         decodeSubmitFrame(frame, keyed ? &line : nullptr));
        } else if (type == "status") {
            reply = statusFrame();
        } else if (type == "ping") {
            reply = makeFrame("pong");
        } else if (type == "cancel") {
            const std::uint64_t id = frame.at("job").asU64();
            // Stops dispatch of the job's remaining points; in-flight
            // points finish and the `done` frame reports `cancelled`
            // truthfully.
            if (cancelJob(id)) {
                reply = makeFrame("cancelling");
                reply.set("job", Value::number(id));
            } else {
                reply = makeError("unknown job " + std::to_string(id));
            }
        } else if (type == "shutdown") {
            conn->sendFrame(makeFrame("bye"));
            requestShutdown();
            return false;
        } else if (opening && adoptConnection(conn, type, frame)) {
            return false;
        } else {
            reply = makeError("unknown frame type \"" + type + "\"");
        }
        return true;
    });
    // A client that left before shutdown stops its jobs' streams, not
    // the jobs. During shutdown the owners stay, so each open job's
    // final `done` still reaches its client.
    if (stopping())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : jobs_) {
        if (entry.second->owner == conn)
            entry.second->owner.reset();
    }
}

void
Daemon::admit(const std::shared_ptr<Connection> &conn,
              const std::shared_ptr<DaemonJob> &job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job->id = nextJobId_++;
        job->owner = conn;
        jobs_.emplace(job->id, job);
    }
    Value fingerprints = Value::array();
    for (const std::string &fp : job->submit->fingerprints)
        fingerprints.push(Value::string(fp));
    Value accepted = makeFrame("accepted");
    accepted.set("job", Value::number(job->id));
    accepted.set("total", Value::number(std::uint64_t{job->total}));
    accepted.set("fingerprints", std::move(fingerprints));
    conn->sendFrame(accepted);
}

std::shared_ptr<Connection>
Daemon::ownerOf(const DaemonJob &job) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return job.owner;
}

JobStatus
DaemonJob::status() const
{
    JobStatus row;
    row.id = id;
    row.experiment = submit->request.experiment;
    row.state = doneSent ? doneStatus : running ? "running" : "queued";
    row.total = total;
    row.completed = completed.load();
    row.cached = cachedCount.load();
    row.budget = budget;
    return row;
}

void
Daemon::finishJob(DaemonJob &job,
                  const runner::Dispatcher::Outcome &outcome)
{
    using Status = runner::Dispatcher::Outcome::Status;
    DoneEvent done;
    done.job = job.id;
    done.status = outcome.status == Status::Ok          ? "ok"
                  : outcome.status == Status::Cancelled ? "cancelled"
                                                        : "error";
    if (outcome.status == Status::Error) {
        try {
            std::rethrow_exception(outcome.error);
        } catch (const std::exception &e) {
            done.message = e.what();
        } catch (...) {
            done.message = "unknown error";
        }
    }
    done.completed = outcome.completed;
    done.cached = job.cachedCount.load();
    std::shared_ptr<Connection> conn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job.doneSent = true;
        job.doneStatus = done.status;
        conn = std::move(job.owner);
        // Keep a bounded tail of finished jobs for `status`; a daemon
        // serving thousands of submits must not hold every grid
        // forever.
        for (auto it = jobs_.begin();
             it != jobs_.end() && jobs_.size() > kRetainedJobs;) {
            if (it->second->doneSent)
                it = jobs_.erase(it);
            else
                ++it;
        }
    }
    if (conn != nullptr)
        conn->sendLine(encodeFrame(done));
    log("job " + std::to_string(done.job) + " " + done.status + " (" +
        std::to_string(done.completed) + "/" +
        std::to_string(job.total) + " points, " +
        std::to_string(done.cached) + " cached)");
}

json::Value
Daemon::jobStatusesLocked() const
{
    Value jobs = Value::array();
    for (const auto &entry : jobs_)
        jobs.push(encodeTree(entry.second->status()));
    return jobs;
}

} // namespace service
} // namespace shotgun
