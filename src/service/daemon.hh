/**
 * @file
 * The front door both daemons share. `shotgun-serve` (SimServer) and
 * `shotgun-coord` (fleet::FleetCoordinator) listen, accept, read
 * frames, track jobs and shut down through one Daemon:
 *
 *  - the listener and its accept loop, one reader thread per
 *    connection, reaped as readers finish;
 *  - the connection registry, so requestShutdown() can wake every
 *    reader by shutting the read side of its socket -- the write side
 *    stays open, so a job's final `done` still reaches its client;
 *  - the frame loop: a malformed, unknown or throwing frame gets an
 *    `error` reply and the connection stays open;
 *  - the client frames: `ping`, `status`, `cancel` and `shutdown`,
 *    with the status body and cancel handed to the daemon;
 *  - `submit` decoding: each frame is decoded and its grid
 *    fingerprinted once, memoized by the frame's exact bytes, and the
 *    decoded request handed to the daemon's admission;
 *  - the job registry: a job holds its submitting connection until
 *    its `done` is sent, unless the client left before shutdown, and
 *    at most 64 finished jobs are kept for `status`; each job's
 *    `status` row, and its `done` frame built from the scheduler's
 *    outcome (runner/dispatcher.hh);
 *  - the fingerprint-keyed result cache both daemons answer from,
 *    an LRU of 64 MiB unless the daemon is given another budget.
 *
 * A daemon supplies only what differs: submit admission, the status
 * body, cancel, the drain once every reader joined, and the
 * connections it takes over on their first frame (the coordinator's
 * worker `register` and `attach`).
 */

#ifndef SHOTGUN_SERVICE_DAEMON_HH
#define SHOTGUN_SERVICE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/memo.hh"
#include "runner/dispatcher.hh"
#include "service/protocol.hh"
#include "service/socket.hh"

namespace shotgun
{
namespace service
{

/** Fingerprint-keyed result memo (common/memo.hh). */
using ResultCache = LruMemoCache<std::string, SimResult>;

/**
 * Default byte budget of a daemon's result cache (64 MiB, like the
 * checkpoint store): about 117,000 results at about 0.57 KB each.
 */
constexpr std::size_t kDefaultResultCacheBytes = 64ull * 1024 * 1024;

/**
 * A `submit` frame as both daemons admit it: the decoded request and
 * its grid's fingerprints, index-aligned with `request.grid`.
 */
struct DecodedSubmit
{
    SubmitRequest request;
    std::vector<std::string> fingerprints;
};

/**
 * Decoded submits keyed by the frame's exact bytes (compared in full,
 * never by hash alone). It holds requests, never results.
 */
using SubmitMemo = LruMemoCache<std::string, DecodedSubmit>;

/**
 * One peer connection. Frames are written from several threads (its
 * reader, job emitters, the coordinator's dispatch), hence the write
 * mutex.
 */
struct Connection
{
    explicit Connection(Socket sock) : channel(std::move(sock)) {}

    LineChannel channel;
    std::mutex writeMutex;

    /** False when the peer is gone; callers just stop streaming. */
    bool sendFrame(const json::Value &frame)
    {
        return sendLine(frame.dump());
    }

    bool sendLine(std::string line);
};

/** What the daemon shell keeps of every admitted job. */
struct DaemonJob
{
    explicit DaemonJob(std::shared_ptr<const DecodedSubmit> decoded)
        : submit(std::move(decoded)), total(submit->request.grid.size())
    {
    }
    DaemonJob(const DaemonJob &) = delete;
    DaemonJob &operator=(const DaemonJob &) = delete;
    virtual ~DaemonJob() = default;

    /** The job's `status` row. Called with the daemon mutex held. */
    JobStatus status() const;

    std::uint64_t id = 0; ///< Assigned by Daemon::admit().

    /**
     * The grid, its fingerprints and the submit's parameters. Shared
     * with the submit memo: a resubmitted frame's job copies neither.
     */
    const std::shared_ptr<const DecodedSubmit> submit;
    const std::size_t total; ///< Grid size.

    // Guarded by the daemon mutex.

    /**
     * The submitting connection. Strong on purpose: the cancelled
     * `done` a shutdown sends must still reach the client after its
     * reader exited. A client that leaves before shutdown has it
     * cleared (the job still completes and warms the cache, it just
     * stops streaming and no longer pins the socket), and sending
     * `done` clears it.
     */
    std::shared_ptr<Connection> owner;
    bool doneSent = false; ///< Terminal; prunable beyond the bound.
    std::string doneStatus; ///< The `done` frame's status, once sent.

    // The status row's progress, kept by the daemon running the job
    // (from any thread).
    std::atomic<bool> running{false};          ///< A point started.
    std::atomic<std::uint64_t> completed{0};   ///< Results streamed.
    std::atomic<std::uint64_t> cachedCount{0}; ///< Answered by a cache.
    unsigned budget = 0; ///< Worker budget; 0 where there is none.
};

class Daemon
{
  public:
    /**
     * Bind and listen immediately (so the resolved endpoint -- e.g. a
     * kernel-assigned TCP port -- is readable before serve()). Throws
     * SocketError when the endpoint cannot be bound. `name` prefixes
     * the lines written to `log` (nullptr is quiet); `cache_bytes`
     * bounds the result cache (0 unbounded).
     */
    Daemon(const std::string &endpoint_spec, std::string name,
           std::ostream *log, std::size_t cache_bytes);
    virtual ~Daemon() = default;

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Resolved listen address, e.g. "127.0.0.1:34127". */
    std::string endpoint() const;

    /**
     * Accept and serve connections until a `shutdown` frame arrives
     * or requestShutdown() is called. Then closes the listener, joins
     * every reader and drains the daemon: every unfinished job gets
     * its `done` frame (as cancelled) before this returns, so the
     * caller may destroy the daemon afterwards.
     */
    void serve();

    /**
     * Initiate shutdown from any thread: stop accepting, wake every
     * connection reader, cancel unfinished jobs.
     */
    void requestShutdown();

    /** Result-cache counters (backendHits counts disk answers). */
    MemoCacheStats cacheStats() const;

    /** Submit-memo counters: hits are submits that skipped decoding. */
    MemoCacheStats submitMemoStats() const;

    /**
     * Attach a persistent write-through backend to the result cache
     * (fleet::DiskResultCache::attachTo, wired by the layer that owns
     * the storage). Call before serve().
     */
    void setCacheBackend(ResultCache::LoadFn load,
                         ResultCache::StoreFn store);

  protected:
    /**
     * Handles one parsed frame of a connection: fills `reply` (left
     * null, nothing is sent) and returns false to end the loop.
     */
    using FrameHandler = std::function<bool(
        const std::string &type, const json::Value &frame,
        json::Value &reply)>;

    /**
     * Read frames from `conn` until the peer leaves, a reply cannot be
     * sent, or `handle` returns false. A malformed frame, or one
     * `handle` throws on, is answered with an `error` frame and the
     * connection stays open.
     */
    static void frameLoop(Connection &conn, const FrameHandler &handle);

    /** Detail for serve()'s first log line: pool size, heartbeat. */
    virtual std::string banner() const = 0;

    /**
     * Admit a decoded `submit` (through admit(), which sends
     * `accepted`) or throw to reject it with an `error` reply. Runs
     * on every submit, memoized or not: checks of daemon or
     * filesystem state belong here, never in the decode.
     */
    virtual void
    handleSubmit(const std::shared_ptr<Connection> &conn,
                 std::shared_ptr<const DecodedSubmit> submit) = 0;

    virtual json::Value statusFrame() = 0;

    /** Stop dispatching a job's points; false for an unknown id. */
    virtual bool cancelJob(std::uint64_t id) = 0;

    /**
     * Offered a connection's first frame when it is not a client
     * frame: return true after serving the connection some other way
     * to its end, false to reject the frame as unknown.
     */
    virtual bool adoptConnection(const std::shared_ptr<Connection> &conn,
                                 const std::string &type,
                                 const json::Value &frame);

    /** requestShutdown()'s daemon part, after the sockets woke. */
    virtual void onShutdown() = 0;

    /**
     * serve()'s last step, once every reader joined (no thread can
     * admit a job any more): finish every open job.
     */
    virtual void drain() = 0;

    bool stopping() const { return stop_.load(); }
    void log(const std::string &line);

    /**
     * Register `job`, submitted on `conn`, under a fresh id and send
     * its `accepted` frame. Call before any of its results can
     * stream, so the client's submit reply is never a `result` frame.
     */
    void admit(const std::shared_ptr<Connection> &conn,
               const std::shared_ptr<DaemonJob> &job);

    /** The connection a job streams to; null once its client left. */
    std::shared_ptr<Connection> ownerOf(const DaemonJob &job) const;

    /**
     * Send the job's `done` for `outcome` to its client, if it is
     * still there, release the connection and log the job's end. The
     * job becomes prunable.
     */
    void finishJob(DaemonJob &job,
                   const runner::Dispatcher::Outcome &outcome);

    /** Registered job `id` as the daemon's own type, or null. */
    template <class Job>
    std::shared_ptr<Job> findJobLocked(std::uint64_t id) const
    {
        const auto it = jobs_.find(id);
        return it == jobs_.end()
                   ? nullptr
                   : std::static_pointer_cast<Job>(it->second);
    }

    /** The `status` frame's jobs array. Lock held. */
    json::Value jobStatusesLocked() const;

    /** The job and connection registries, and the daemon's state. */
    mutable std::mutex mutex_;
    std::map<std::uint64_t, std::shared_ptr<DaemonJob>> jobs_;

    /** The fingerprint-keyed results both daemons answer from. */
    ResultCache cache_;

  private:
    /** frameLoop()'s handler, given each line before it is parsed. */
    using LineHandler = std::function<bool(const std::string &line,
                                           json::Value &reply)>;

    static void lineLoop(Connection &conn, const LineHandler &handle);

    void serveConnection(const std::shared_ptr<Connection> &conn);

    /**
     * Decode and fingerprint a parsed `submit` frame. With a `key`
     * (its line, in encodeFrame's layout) the result is memoized
     * under it, unless the frame is traced or its decode read a
     * trace file.
     */
    std::shared_ptr<const DecodedSubmit>
    decodeSubmitFrame(const json::Value &frame, const std::string *key);

    const std::string name_;
    std::ostream *const log_;
    Listener listener_;
    std::atomic<bool> stop_{false};
    std::vector<std::weak_ptr<Connection>> connections_;
    std::uint64_t nextJobId_ = 1;
    SubmitMemo submitMemo_;
};

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_DAEMON_HH
