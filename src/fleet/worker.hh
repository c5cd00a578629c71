/**
 * @file
 * The worker side of the fleet: a FleetWorker rides inside a
 * `shotgun-serve --coordinator` daemon and pulls grid points from a
 * FleetCoordinator while the embedded SimServer keeps serving direct
 * client connections as before.
 *
 * Connections (all outbound -- workers behind NAT or a container
 * network need no reachable address):
 *  - one *control* connection: `register` once, then a heartbeat
 *    every heartbeatMs carrying the worker's cache counters;
 *  - one *work* connection per slot: `attach`, then a steal ->
 *    work -> result loop. A steal with no queued work parks on the
 *    coordinator until work arrives, so idle workers cost nothing.
 *
 * Every pulled point is validated (validateExperimentTrace) before
 * it is simulated -- a missing or stale trace on this machine is
 * reported as an error result, never a fatal() that would kill the
 * daemon -- and computed through the SimServer's fingerprint cache
 * (SimServer::computeCached), so fleet work and direct submissions
 * share one cache (and one --cache-dir persistence).
 *
 * Registration is an event: the control thread publishes the
 * coordinator-assigned id under the worker's mutex and notifies the
 * slot threads, which wait for it instead of polling, so a worker's
 * slots attach and park within milliseconds of its `register` ack.
 *
 * Failures reconnect with a capped exponential backoff: a
 * coordinator that is not listening yet, a coordinator restart, a
 * dropped control connection, a dead slot socket or an `attach`
 * rejected for a stale id each retry after 5 ms, doubling up to
 * heartbeatMs, and a successful `register` or `attach` resets the
 * delay. Between heartbeats the control thread waits on its socket,
 * so it notices a coordinator closing the connection at once. So a
 * worker started before its coordinator, or one whose coordinator
 * restarted, rejoins within tens of milliseconds. The
 * coordinator requeues whatever this worker had in flight the
 * moment it notices (EOF or missed heartbeats), so a reconnecting
 * worker never strands work.
 */

#ifndef SHOTGUN_FLEET_WORKER_HH
#define SHOTGUN_FLEET_WORKER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "service/server.hh"
#include "service/socket.hh"

namespace shotgun
{
namespace fleet
{

struct WorkerOptions
{
    /** Coordinator endpoint spec ("host:port" or "unix:<path>"). */
    std::string coordinator;

    /** Operator-facing name shown in --fleet-status. */
    std::string name = "worker";

    /** Concurrent simulation slots offered to the coordinator. */
    unsigned slots = 1;

    /**
     * Heartbeat period; also the cap on the reconnect backoff, which
     * starts at 5 ms and doubles per failed attempt.
     */
    unsigned heartbeatMs = 1000;

    /** Log stream; nullptr is quiet. */
    std::ostream *log = nullptr;
};

class FleetWorker
{
  public:
    /** Does not connect yet; start() spawns the fleet threads. */
    FleetWorker(service::SimServer &server, WorkerOptions options);
    ~FleetWorker();

    FleetWorker(const FleetWorker &) = delete;
    FleetWorker &operator=(const FleetWorker &) = delete;

    void start();

    /** Tear every connection down and join the threads. Idempotent. */
    void stop();

  private:
    void controlLoop();
    void slotLoop(unsigned slot_index);

    /** Register a live channel so stop() can unblock its reader. */
    std::shared_ptr<service::LineChannel>
    adoptChannel(service::Socket sock);

    /** Interruptible sleep; false when stopping. */
    bool sleepMs(unsigned ms);

    void log(const std::string &line);

    service::SimServer &server_;
    WorkerOptions options_;
    service::Endpoint coordinator_;

    std::atomic<bool> stop_{false};
    std::atomic<bool> started_{false};

    /** Coordinator-assigned id; 0 until registered. */
    std::atomic<std::uint64_t> workerId_{0};

    /**
     * Guards channels_. stop_ and a nonzero workerId_ are stored
     * under it before stopCv_ is notified, so no waiter misses one.
     */
    std::mutex mutex_;
    std::condition_variable stopCv_;
    std::vector<std::weak_ptr<service::LineChannel>> channels_;

    std::vector<std::thread> threads_;
};

} // namespace fleet
} // namespace shotgun

#endif // SHOTGUN_FLEET_WORKER_HH
