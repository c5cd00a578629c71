/**
 * @file
 * The instruction-side memory hierarchy seen by the front end: L1-I
 * with an MSHR file, backed by the shared NUCA LLC (modelled with
 * real contents for instruction blocks) and main memory, with all
 * L1-I miss/prefetch traffic passing through the mesh contention
 * model.
 */

#ifndef SHOTGUN_CACHE_HIERARCHY_HH
#define SHOTGUN_CACHE_HIERARCHY_HH

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "memory/main_memory.hh"
#include "noc/mesh.hh"

namespace shotgun
{

struct HierarchyParams
{
    CacheParams l1i{"l1i", 32, 2};      ///< Table 3: 32KB 2-way.
    CacheParams llc{"llc", 8192, 16};   ///< 512KB x 16 cores, 16-way.
    unsigned l1iHitCycles = 2;          ///< Table 3: 2-cycle L1-I.
    std::size_t mshrs = 64;             ///< Table 3 prefetch buffer.
    MeshParams mesh{};
    MainMemoryParams memory{};
};

/**
 * L1-I + LLC + memory with cycle-stamped fills.
 *
 * Completion is pull-based: the core calls drainFills(now, fn) every
 * cycle; fn observes each arriving block (the Shotgun/Confluence
 * predecode-and-prefill hook).
 */
class InstrHierarchy
{
  public:
    explicit InstrHierarchy(const HierarchyParams &params = {});

    /** Result of a demand fetch probe. */
    struct FetchResult
    {
        bool hit = false;
        Cycle readyAt = 0; ///< Valid when !hit: when the fill lands.
    };

    /**
     * Demand access from the fetch engine. On a miss this allocates
     * (or piggybacks on) an MSHR; the block becomes usable at
     * readyAt, after which fetch must re-access (which will hit).
     */
    FetchResult demandFetch(Addr block_number, Cycle now);

    /**
     * Issue a prefetch probe for a block (FDIP-style, as fetch
     * addresses enter the FTQ, or Shotgun's footprint bulk probes).
     * Silently drops when the block is resident, already in flight,
     * or the MSHR file is full.
     * @return true if a new in-flight fill was created.
     */
    bool issuePrefetch(Addr block_number, Cycle now);

    /**
     * Latency for a reactive BTB-fill probe of a block (Boomerang):
     * L1-I hit costs the L1 latency; otherwise the block is fetched
     * from LLC/memory (installing it into L1-I via the normal fill
     * path).
     * @return cycle at which the block's bytes are available.
     */
    Cycle probeForFill(Addr block_number, Cycle now);

    /** Complete all fills due at `now`; fn(block, wasPrefetch). */
    template <typename Fn>
    void
    drainFills(Cycle now, Fn &&fn)
    {
        mshrs_.drain(now, [&](const MSHRFile::Entry &entry) {
            // A prefetch that a demand fetch piggybacked on was late
            // but still useful (it shortened the exposed stall).
            if (entry.isPrefetch && entry.demandWaiting)
                ++lateUseful_;
            l1i_.fill(entry.block, entry.isPrefetch &&
                                       !entry.demandWaiting);
            fn(entry.block, entry.isPrefetch);
        });
    }

    void
    drainFills(Cycle now)
    {
        drainFills(now, [](Addr, bool) {});
    }

    /** Cycle of the next fill drainFills() will complete; kNever if none. */
    Cycle nextFillAt() const { return mshrs_.nextReadyAt(); }

    /** Heap bytes of the L1-I and LLC arrays (checkpoint accounting). */
    std::size_t
    footprintBytes() const
    {
        return l1i_.footprintBytes() + llc_.footprintBytes();
    }

    std::uint64_t lateUsefulPrefetches() const
    {
        return lateUseful_;
    }

    bool l1Contains(Addr block_number) const
    {
        return l1i_.contains(block_number);
    }

    bool
    inFlight(Addr block_number)
    {
        return mshrs_.find(block_number) != nullptr;
    }

    Cache &l1i() { return l1i_; }
    const Cache &l1i() const { return l1i_; }
    Cache &llc() { return llc_; }
    MeshModel &mesh() { return mesh_; }
    MainMemory &memory() { return memory_; }
    MSHRFile &mshrs() { return mshrs_; }
    const HierarchyParams &params() const { return params_; }

    std::uint64_t demandMisses() const { return demandMisses_; }
    std::uint64_t prefetchesIssued() const { return prefetches_; }

    void resetStats();

  private:
    /** Fill latency from beyond the L1-I, touching LLC contents. */
    Cycle fillLatency(Addr block_number, Cycle now);

    HierarchyParams params_;
    Cache l1i_;
    Cache llc_;
    MSHRFile mshrs_;
    MeshModel mesh_;
    MainMemory memory_;

    std::uint64_t demandMisses_ = 0;
    std::uint64_t prefetches_ = 0;
    std::uint64_t lateUseful_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_CACHE_HIERARCHY_HH
