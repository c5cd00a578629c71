/**
 * @file
 * The batch/async simulation service daemon core: admits submitted
 * grids as jobs into a work-conserving multi-job scheduler
 * (runner/grid_scheduler.hh) -- a fixed worker pool dispatches grid
 * points across every admitted job by its priority's fair share, so
 * concurrently submitted sweeps make progress together instead of
 * queueing FIFO behind each other -- streams `result` frames in grid
 * order as points complete, and serves repeated configurations from a
 * fingerprint-keyed result cache with an optional LRU byte budget
 * (common/memo.hh): a sweep resubmitted after a client crash, or
 * sharing points with an earlier sweep, only simulates the
 * configurations it has not seen. Sockets, frames, jobs and shutdown
 * are the daemon shell's (daemon.hh).
 *
 * The class is the in-process core of the `shotgun-serve` tool, kept
 * in the library so tests can run a real server on a Unix socket in
 * the test process and assert byte-identical results end to end.
 *
 * Determinism: every job's results are emitted strictly in its grid
 * order and each simulation is a pure function of its SimConfig, so
 * any shard of a grid returns exactly the results an in-process run
 * of that shard yields, regardless of worker budgets, concurrent
 * jobs, caching or eviction.
 */

#ifndef SHOTGUN_SERVICE_SERVER_HH
#define SHOTGUN_SERVICE_SERVER_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "runner/grid_scheduler.hh"
#include "service/daemon.hh"

namespace shotgun
{
namespace service
{

struct ServerOptions
{
    /**
     * Worker pool size (and the cap on any single job's worker
     * budget); 0 means one per hardware thread. A submit's own
     * `jobs` request is clamped to this.
     */
    unsigned jobs = 0;

    /**
     * Byte budget for the fingerprint result cache; least-recently-
     * used entries are evicted once the accounted result bytes
     * exceed it. 0 keeps the cache unbounded.
     */
    std::size_t cacheBytes = kDefaultResultCacheBytes;

    /** Log stream for connection/job lines; nullptr is quiet. */
    std::ostream *log = nullptr;
};

class SimServer : public Daemon
{
  public:
    /** Bind and listen immediately; throws SocketError on failure. */
    SimServer(const std::string &endpoint_spec,
              ServerOptions options = {});
    ~SimServer() override;

    /** Distinct configurations in the result cache right now. */
    std::size_t cacheSize() const;

    /**
     * Compute one grid point through the result cache -- the shared
     * path of admitted jobs and the fleet worker's steal loop, so
     * both populate the same fingerprint cache. `cached` (optional)
     * reports whether the value was served without simulating here.
     * Throws whatever the simulation throws; callers on daemon
     * threads must validate the experiment first
     * (validateExperimentTrace) so a bad trace cannot fatal().
     */
    std::shared_ptr<const SimResult>
    computeCached(const std::string &fingerprint,
                  const runner::Experiment &exp,
                  bool *cached = nullptr);

  private:
    struct Job;

    std::string banner() const override;
    void handleSubmit(const std::shared_ptr<Connection> &conn,
                      std::shared_ptr<const DecodedSubmit> submit) override;
    json::Value statusFrame() override;
    bool cancelJob(std::uint64_t id) override;
    void onShutdown() override;
    void drain() override;

    // Its destructor joins the worker threads, whose hooks touch the
    // cache, the jobs and the connections. The daemon shell holding
    // those is destroyed after this member, so they are still alive.
    runner::GridScheduler scheduler_;
};

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_SERVER_HH
