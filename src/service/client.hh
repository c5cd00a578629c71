/**
 * @file
 * Client side of the simulation service: submit an experiment grid to
 * one server and stream its results, or shard a grid across several
 * servers (`--workers` mode) with deterministic index-aligned
 * stitching -- experiment i goes to worker i mod W, every result is
 * placed back at index i, so the assembled vector is bitwise-identical
 * to running the grid in one process, no matter how many workers or
 * how their finish times interleave.
 *
 * Fault tolerance: every receive is bounded by a socket deadline (a
 * wedged server fails the call with a clear timeout error instead of
 * hanging the client forever), and submitSharded() survives worker
 * death -- a failed worker's undelivered points are redistributed
 * round-robin across the surviving workers (results it already
 * streamed are kept), with per-worker retry accounting. Only when
 * every worker is dead does the first failure propagate.
 */

#ifndef SHOTGUN_SERVICE_CLIENT_HH
#define SHOTGUN_SERVICE_CLIENT_HH

#include <functional>
#include <string>
#include <vector>

#include "runner/experiment.hh"
#include "service/protocol.hh"
#include "service/socket.hh"

namespace shotgun
{
namespace service
{

/** Server-reported failure (error frame / unexpected disconnect). */
struct ServiceError : std::runtime_error
{
    explicit ServiceError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * The job itself failed (`done` status "error"): a simulation threw
 * on the server. Deterministic -- the same grid point fails on any
 * worker -- so submitSharded() rethrows it immediately instead of
 * redistributing the shard and failing every healthy worker in turn.
 */
struct JobFailedError : ServiceError
{
    explicit JobFailedError(const std::string &what)
        : ServiceError(what)
    {
    }
};

/**
 * Default receive deadline: generous because a single grid point is
 * legitimately minutes of simulation with no frame traffic, but
 * finite so a wedged daemon cannot hang a client forever.
 */
constexpr unsigned kDefaultTimeoutSeconds = 600;

class ServiceClient
{
  public:
    /**
     * Connect; throws SocketError when the server is unreachable.
     * `timeout_seconds` bounds every receive: when the server sends
     * nothing for that long the pending call throws SocketError
     * with a timeout message (0 disables the deadline).
     */
    explicit ServiceClient(
        const std::string &endpoint_spec,
        unsigned timeout_seconds = kDefaultTimeoutSeconds);

    const std::string &endpoint() const { return endpoint_; }

    /**
     * Submit a grid and block until its `done` frame. Returns the
     * results index-aligned with `request.grid`; `on_result` (when
     * set) observes each streamed point as it arrives, in grid
     * order. Throws ServiceError when the server rejects the submit,
     * reports a failed job, or disconnects mid-stream, and
     * SocketError on transport failure or receive timeout.
     */
    std::vector<SimResult>
    submit(const SubmitRequest &request,
           const std::function<void(const ResultEvent &)> &on_result =
               {});

    /** The server's `status` frame (decoded JSON). */
    json::Value status();

    /** True when the server answered the ping. */
    bool ping();

    /** Ask a job to cancel (best-effort). */
    void cancel(std::uint64_t job);

    /** Send `shutdown`; returns once the server acknowledged. */
    void shutdownServer();

  private:
    json::Value request(const json::Value &frame);
    json::Value request(std::string line);
    std::string recvLineOrThrow();

    std::string endpoint_;
    unsigned timeoutSeconds_ = 0;
    LineChannel channel_;
};

/** One worker's ledger from a submitSharded() run. */
struct ShardOutcome
{
    std::string endpoint;
    std::size_t assigned = 0;  ///< Points routed here (incl. retries).
    std::size_t delivered = 0; ///< Results this worker streamed.
    std::size_t retried = 0; ///< Points moved to survivors after death.
    std::string error; ///< First failure message; empty = healthy.
};

struct ShardedOptions
{
    /** Ticks once per first-time delivered point; calls are
     * serialized and `done` is monotone, whichever shard thread
     * delivered the point. */
    std::function<void(std::size_t done, std::size_t total)>
        onProgress;

    /**
     * Observes each first-time delivered point's full ResultEvent
     * (with `grid_index` mapped back to the submitted grid). Calls
     * are serialized; a point re-delivered after a worker death is
     * reported once. Window sharding uses this to harvest the raw
     * per-window deltas the stitcher needs.
     */
    std::function<void(std::size_t grid_index,
                       const ResultEvent &event)>
        onEvent;

    /** Per-connection receive deadline (0 disables). */
    unsigned timeoutSeconds = kDefaultTimeoutSeconds;

    /** When set, receives one ledger per endpoint (input order). */
    std::vector<ShardOutcome> *outcomes = nullptr;
};

/**
 * Run a grid across one or more servers. With several endpoints,
 * experiment i is initially submitted to endpoint i mod W
 * (round-robin keeps per-workload clusters spread) and the shards
 * run concurrently, one thread per worker.
 *
 * A worker that fails (connect failure, death mid-grid, timeout) is
 * marked dead and its undelivered points are redistributed
 * round-robin across the surviving workers -- results it streamed
 * before dying are kept, never recomputed. The grid completes, with
 * stitching still index-aligned and byte-identical to an in-process
 * run, as long as one worker survives; the first failure is rethrown
 * only when every worker is dead.
 */
std::vector<SimResult> submitSharded(
    const std::vector<std::string> &endpoints,
    const SubmitRequest &request, const ShardedOptions &options);

/** Convenience overload: progress callback only. */
std::vector<SimResult> submitSharded(
    const std::vector<std::string> &endpoints,
    const SubmitRequest &request,
    const std::function<void(std::size_t done, std::size_t total)>
        &on_progress = {});

/**
 * Run a grid with each experiment split into `window_shards`
 * full-coverage windows distributed across the workers (finer-
 * grained than per-config sharding: one heavy workload parallelizes
 * across machines). Every window is an ordinary grid point of the
 * expanded wire grid, so the submitSharded() machinery above --
 * round-robin assignment, streamed-result harvesting, dead-worker
 * redistribution -- applies unchanged to windows: a window lost with
 * its worker is re-simulated on a survivor and the stitch does not
 * change, which keeps the returned vector (index-aligned with
 * `request.grid`) numerically identical to running each experiment
 * monolithically, as long as one worker survives.
 *
 * onProgress/onEvent tick per *window*; `outcomes` ledgers count
 * windows too. Throws like submitSharded(); additionally fatal() on
 * window_shards == 0 or a grid point too short to split.
 */
std::vector<SimResult> submitWindowSharded(
    const std::vector<std::string> &endpoints,
    const SubmitRequest &request, unsigned window_shards,
    const ShardedOptions &options);

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_CLIENT_HH
