/**
 * @file
 * The fleet control plane: one `shotgun-coord` daemon that owns a
 * global work-stealing queue of grid points and hands them to
 * registered `shotgun-serve` workers, so clients submit to a single
 * endpoint instead of enumerating workers.
 *
 * Topology (see src/fleet/README.md for the wire spec):
 *
 *   shotgun-submit --coordinator EP          shotgun-serve w1..wN
 *        |  submit/status/cancel                  |  register+heartbeat
 *        v                                        v  (1 control conn)
 *   +---------------------- shotgun-coord ----------------------+
 *   | dispatcher (fair share, LPT)    | worker registry        |
 *   | result cache (LRU + disk)       | heartbeat monitor       |
 *   +------------------------------------------------------------+
 *                  ^ steal -> work -> result (1 conn per slot)
 *
 * Clients speak the ordinary service protocol (protocol.hh): the
 * coordinator accepts `submit` and streams `result`/`done` frames in
 * strict grid order, exactly like a SimServer, so ServiceClient and
 * all its sharding/stitching machinery work against a coordinator
 * unchanged -- and the assembled output stays byte-identical to an
 * in-process run.
 *
 * Scheduling is the one policy GridScheduler runs too
 * (runner/dispatcher.hh): any idle worker slot steals the next point
 * of the job with the smallest dispatch share, weighted by the submit
 * frame's `priority`; within a job points go longest-measured-first
 * (the LPT placement that minimizes the straggler tail), ties in grid
 * order. There is no static assignment, so a fast worker simply
 * steals more.
 *
 * Fault tolerance: a worker that closes its connections, or whose
 * heartbeat goes missing for `heartbeatMissLimit` intervals, is
 * declared dead and every point in flight on it is requeued at its
 * old place in its job's order for the survivors -- results it
 * already returned are kept, and a late result for a requeued point
 * is dropped, so every grid point lands exactly once. Simulations are
 * pure functions of their config, so re-running a lost point on any
 * worker yields identical bytes.
 *
 * Results are cached by config fingerprint in an LRU memo cache
 * with an optional persistent directory backend (disk_cache.hh):
 * a resubmitted grid is answered without touching any worker, even
 * across a coordinator restart.
 *
 * Listening, connections, frames, the job registry and shutdown are
 * the daemon shell's (service/daemon.hh), shared with SimServer.
 */

#ifndef SHOTGUN_FLEET_COORDINATOR_HH
#define SHOTGUN_FLEET_COORDINATOR_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/disk_cache.hh"
#include "runner/dispatcher.hh"
#include "service/daemon.hh"

namespace shotgun
{
namespace fleet
{

struct CoordinatorOptions
{
    /** Byte budget of the in-memory result cache; 0 unbounded. */
    std::size_t cacheBytes = service::kDefaultResultCacheBytes;

    /**
     * Persistent cache directory; empty disables persistence. The
     * directory is created if absent and survives restarts.
     */
    std::string cacheDir;

    /**
     * Byte bound on the persistent cache directory; 0 unbounded.
     * Oldest entries are trimmed first (DiskResultCache).
     */
    std::uint64_t cacheDirMaxBytes = 0;

    /** Expected worker heartbeat interval. */
    unsigned heartbeatIntervalMs = 1000;

    /**
     * Heartbeats a worker may miss before it is declared dead and
     * its in-flight points are requeued on the survivors.
     */
    unsigned heartbeatMissLimit = 3;

    /** Log stream for fleet events; nullptr is quiet. */
    std::ostream *log = nullptr;
};

class FleetCoordinator : public service::Daemon
{
  public:
    /** Bind and listen immediately; throws SocketError on failure. */
    FleetCoordinator(const std::string &endpoint_spec,
                     CoordinatorOptions options = {});
    ~FleetCoordinator() override;

    /** Workers currently registered and not declared dead. */
    std::size_t liveWorkers() const;

    /** Queued (not yet dispatched) tasks right now. */
    std::size_t queueDepth() const;

  private:
    using Connection = service::Connection;
    struct Worker;
    struct Slot;
    struct Job;

    /** (connection, encoded frame) pairs sent outside the mutex. */
    using SendBatch = std::vector<
        std::pair<std::shared_ptr<Connection>, std::string>>;

    std::string banner() const override;
    void handleSubmit(
        const std::shared_ptr<Connection> &conn,
        std::shared_ptr<const service::DecodedSubmit> submit) override;
    json::Value statusFrame() override;
    bool cancelJob(std::uint64_t id) override;

    /** Workers open with `register` (control) or `attach` (slot). */
    bool adoptConnection(const std::shared_ptr<Connection> &conn,
                         const std::string &type,
                         const json::Value &frame) override;
    void onShutdown() override;

    /** Flush a cancelled `done` to every job still open. */
    void drain() override;

    void runWorkerControl(const std::shared_ptr<Connection> &conn,
                          const service::RegisterRequest &reg);
    void runWorkerSlot(const std::shared_ptr<Connection> &conn,
                       const json::Value &frame);
    void handleWorkResult(const std::shared_ptr<Slot> &slot,
                          const json::Value &frame);

    /** Match dispatchable points to parked slots; fills `sends`. */
    void pumpLocked(SendBatch &sends);

    /**
     * Stream the job's ready prefix in grid order and, once the job
     * is over, its `done` frame. Safe from any thread; concurrent
     * calls for one job never interleave frames.
     */
    void emitJob(const std::shared_ptr<Job> &job);

    /** Declare a worker dead and tear its connections down. */
    void declareDead(std::uint64_t worker_id,
                     const std::string &reason);

    void monitorLoop();
    void sendBatch(SendBatch &sends);

    CoordinatorOptions options_;

    // Guarded by the daemon mutex, with the job registry.
    runner::Dispatcher dispatcher_; ///< Keyed by daemon job id.
    std::map<std::uint64_t, std::shared_ptr<Worker>> workers_;
    std::deque<std::shared_ptr<Slot>> parked_; ///< Idle steals.
    std::uint64_t nextWorkerId_ = 1;

    std::condition_variable monitorCv_;
    std::thread monitor_;

    std::unique_ptr<DiskResultCache> disk_;
};

} // namespace fleet
} // namespace shotgun

#endif // SHOTGUN_FLEET_COORDINATOR_HH
