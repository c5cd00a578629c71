/**
 * @file
 * Set-associative cache content model (LRU). Tracks block presence,
 * demand hits/misses, and per-block prefetch provenance so prefetch
 * accuracy (used-before-evicted) can be measured exactly as Fig 10
 * defines it.
 */

#ifndef SHOTGUN_CACHE_CACHE_HH
#define SHOTGUN_CACHE_CACHE_HH

#include <string>
#include <vector>

#include "btb/assoc_table.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace shotgun
{

struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeKB = 32;  ///< Table 3: 32KB L1-I.
    std::size_t ways = 2;     ///< Table 3: 2-way.
};

class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Demand access to a block.
     * @return true on hit. A hit on a prefetched, not-yet-used block
     * counts it as a useful prefetch.
     */
    bool access(Addr block_number);

    /** Presence probe without stats or recency update. */
    bool contains(Addr block_number) const;

    /**
     * Install a block.
     * @param prefetched true when installed by a prefetch (tracked
     * for accuracy accounting until first demand use or eviction).
     */
    void fill(Addr block_number, bool prefetched);

    std::size_t numBlocks() const { return table_.capacity(); }
    std::size_t occupancy() const { return table_.occupancy(); }

    /** Heap bytes of the line arrays and victim table. */
    std::size_t
    footprintBytes() const
    {
        return table_.footprintBytes() +
               pollutionVictims_.size() * sizeof(Addr);
    }
    const std::string &name() const { return params_.name; }

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return accesses() - hits(); }
    std::uint64_t fills() const { return fills_.value(); }

    /** Prefetched blocks later referenced by a demand access. */
    std::uint64_t usefulPrefetches() const { return useful_.value(); }

    /** Prefetched blocks evicted without ever being used. */
    std::uint64_t uselessPrefetches() const { return useless_.value(); }

    /** All prefetch fills (useful + useless + still resident). */
    std::uint64_t prefetchFills() const { return prefetchFills_.value(); }

    /**
     * Demand-resident blocks evicted by a prefetch fill that then
     * missed again on demand -- the "polluting" prefetch lifecycle
     * class. Counted only while pollution tracking is enabled
     * (uarch probes); the tracker is a fixed-size victim table whose
     * bookkeeping never influences replacement decisions.
     */
    std::uint64_t pollutingPrefetches() const { return polluting_.value(); }

    /** Turn on the pollution victim table (observer-only). */
    void enablePollutionTracking();

    void resetStats();
    void clear() { table_.clear(); }

  private:
    struct BlockState
    {
        bool prefetched = false; ///< Awaiting first demand use.
    };

    CacheParams params_;
    SetAssocTable<BlockState> table_;
    Counter accesses_;
    Counter hits_;
    Counter fills_;
    Counter useful_;
    Counter useless_;
    Counter prefetchFills_;
    Counter polluting_;

    /**
     * Direct-mapped table of demand-resident blocks recently evicted
     * by prefetch fills (~Addr(0) marks an empty slot); a demand miss
     * matching its slot confirms pollution. Empty (tracking off)
     * unless enablePollutionTracking() was called.
     */
    std::vector<Addr> pollutionVictims_;

    static constexpr std::size_t kPollutionSlots = 256;
};

} // namespace shotgun

#endif // SHOTGUN_CACHE_CACHE_HH
