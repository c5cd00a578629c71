/**
 * @file
 * Analytic model of the 4x4 mesh + NUCA LLC of the paper's 16-core
 * CMP (Table 3: 4x4 2D mesh at 3 cycles/hop, 512KB/core shared NUCA
 * LLC at 5 cycles, 45ns memory).
 *
 * We simulate one core in detail; the other 15 cores' traffic is
 * modelled analytically. Because all cores run the same workload and
 * prefetch scheme (the paper's homogeneous-consolidation setup), the
 * peers' offered load mirrors the simulated core's own request rate:
 * total load = 16 x own rate + a fixed data-traffic term. Latency is
 * base (hops + LLC access) plus an M/M/1-style queueing term in the
 * utilization, which is what couples over-prefetching to L1-D fill
 * latency (Fig 11).
 */

#ifndef SHOTGUN_NOC_MESH_HH
#define SHOTGUN_NOC_MESH_HH

#include <cstdint>

#include "common/types.hh"

namespace shotgun
{

struct MeshParams
{
    unsigned dim = 4;           ///< Mesh dimension (4x4).
    unsigned hopCycles = 3;     ///< Per-hop latency (Table 3).
    unsigned llcAccessCycles = 5; ///< NUCA slice access (Table 3).
    unsigned memoryCycles = 90; ///< 45ns at 2GHz, beyond LLC latency.

    /** Requests/cycle the LLC banks + NoC can absorb in aggregate. */
    double serviceCapacity = 6.5;

    /** Number of cores whose traffic mirrors the simulated core. */
    unsigned numCores = 16;

    /** Fixed additional load (peer data traffic), requests/cycle. */
    double backgroundLoad = 3.0;

    /** Queue-delay scale factor (cycles at 50% utilization). */
    double queueFactor = 16.0;

    /** Upper bound on the queueing term, cycles. */
    unsigned maxQueueCycles = 120;

    /** Width of the rate-measurement window, cycles (power of two). */
    Cycle rateWindow = 2048;
};

/**
 * Tracks the simulated core's LLC request rate over a sliding window
 * and converts utilization into per-request latency.
 */
class MeshModel
{
  public:
    explicit MeshModel(const MeshParams &params = MeshParams{});

    /** Account one LLC request from the simulated core. */
    void noteRequest(Cycle now);

    /** Round-trip latency L1 -> LLC -> L1 for an LLC hit. */
    Cycle llcLatency(Cycle now);

    /** Round-trip latency for an LLC miss serviced by memory. */
    Cycle memoryLatency(Cycle now);

    /** Current modelled utilization in [0, 1). */
    double utilization(Cycle now);

    /** Own request rate over the last full window (requests/cycle). */
    double ownRate(Cycle now);

    /** Base (uncontended) LLC round trip, cycles. */
    Cycle baseLlcLatency() const { return baseLlc_; }

    const MeshParams &params() const { return params_; }

  private:
    void advance(Cycle now);
    Cycle queueCycles(Cycle now);

    MeshParams params_;
    Cycle baseLlc_;

    Cycle curWindow_ = 0;
    std::uint64_t curCount_ = 0;
    double prevRate_ = 0.0;
};

} // namespace shotgun

#endif // SHOTGUN_NOC_MESH_HH
