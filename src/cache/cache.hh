/**
 * @file
 * Set-associative cache content model (LRU). Tracks block presence,
 * demand hits/misses, and per-block prefetch provenance so prefetch
 * accuracy (used-before-evicted) can be measured exactly as Fig 10
 * defines it.
 *
 * Storage is proportional to what a run touched, not to capacity: the
 * 8 MiB LLC holds at most a few thousand instruction blocks in a run,
 * and every checkpoint clones the cache. Resident lines live in one
 * growable array; each set keeps a chain head and a resident count,
 * and its lines are chained through the array most recently used
 * first. A lookup walks its set's chain; a hit or a re-fill moves the
 * line to the head. A fill into a set with a free way appends a line
 * at the head; a fill into a full set refills the tail, its least
 * recently used line, in place and moves it to the head. So a set's
 * lines and victims are exactly those of a dense table of `ways`
 * slots per set that evicts the lowest LRU stamp, which
 * tests/test_cache.cc checks call for call. L1-I and LLC share this
 * one layout.
 */

#ifndef SHOTGUN_CACHE_CACHE_HH
#define SHOTGUN_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

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

    std::size_t numBlocks() const { return sets_.size() * ways_; }
    std::size_t occupancy() const { return lines_.size(); }

    /** Heap bytes of the set, line and victim arrays. */
    std::size_t
    footprintBytes() const
    {
        return sets_.capacity() * sizeof(Set) +
               lines_.capacity() * sizeof(Line) +
               pollutionVictims_.capacity() * sizeof(Addr);
    }
    const std::string &name() const { return params_.name; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return accesses() - hits(); }
    std::uint64_t fills() const { return fills_; }

    /** Prefetched blocks later referenced by a demand access. */
    std::uint64_t usefulPrefetches() const { return useful_; }

    /** Prefetched blocks evicted without ever being used. */
    std::uint64_t uselessPrefetches() const { return useless_; }

    /** All prefetch fills (useful + useless + still resident). */
    std::uint64_t prefetchFills() const { return prefetchFills_; }

    /**
     * Demand-resident blocks evicted by a prefetch fill that then
     * missed again on demand -- the "polluting" prefetch lifecycle
     * class. Counted only while pollution tracking is enabled
     * (uarch probes); the tracker is a fixed-size victim table whose
     * bookkeeping never influences replacement decisions.
     */
    std::uint64_t pollutingPrefetches() const { return polluting_; }

    /** Turn on the pollution victim table (observer-only). */
    void enablePollutionTracking();

    void resetStats();

  private:
    static constexpr std::uint32_t kNoLine = ~std::uint32_t(0);

    /** A resident block, chained to the next line of its set. */
    struct Line
    {
        Addr block = 0;
        std::uint32_t next = kNoLine; ///< Next (less recent) line.
        bool prefetched = false;      ///< Awaiting first demand use.
    };

    /** A set's most recently used line and how many lines it holds. */
    struct Set
    {
        std::uint32_t head = kNoLine;
        std::uint32_t count = 0;
    };

    /** key % sets: a mask for a power-of-two set count. */
    std::size_t
    setIndex(Addr block_number) const
    {
        return powerOfTwoSets_ ? block_number & setMask_
                               : block_number % sets_.size();
    }

    /** The resident line holding `block_number`, or kNoLine. */
    std::uint32_t find(Addr block_number) const;

    /** find(), then make the line its set's most recently used. */
    std::uint32_t touch(Addr block_number);

    CacheParams params_;
    std::size_t ways_;
    std::uint64_t setMask_ = 0;
    bool powerOfTwoSets_ = false;
    std::vector<Set> sets_;
    std::vector<Line> lines_;

    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t useful_ = 0;
    std::uint64_t useless_ = 0;
    std::uint64_t prefetchFills_ = 0;
    std::uint64_t polluting_ = 0;

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
