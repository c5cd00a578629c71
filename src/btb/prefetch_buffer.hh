/**
 * @file
 * BTB prefetch buffer (from Boomerang, Sec 4.2.3 of the Shotgun
 * paper): a small fully-associative staging buffer holding branches
 * predecoded from fetched/prefetched cache blocks that were not the
 * branch a reactive fill was resolving. On a front-end hit, the entry
 * migrates into the appropriate BTB; this keeps speculative predecode
 * results from polluting the main BTBs.
 */

#ifndef SHOTGUN_BTB_PREFETCH_BUFFER_HH
#define SHOTGUN_BTB_PREFETCH_BUFFER_HH

#include <cstdint>
#include <vector>

#include "btb/btb_entry.hh"

namespace shotgun
{

class BTBPrefetchBuffer
{
  public:
    explicit BTBPrefetchBuffer(std::size_t entries = 32);

    /** Stage a predecoded branch. Duplicate inserts refresh LRU. */
    void insert(const BTBEntry &entry);

    /**
     * Look up a basic-block start; on hit the entry is *removed*
     * (the caller migrates it into the appropriate BTB).
     * @return true and fills `out` on hit.
     */
    bool extract(Addr bb_start, BTBEntry &out);

    /** Non-destructive probe. */
    bool contains(Addr bb_start) const;

    std::size_t capacity() const { return entries_.size(); }
    std::size_t occupancy() const;

    /**
     * Full BTB entries with full tags: 46-bit tag, 46-bit target,
     * 5-bit size, 3-bit type, 2-bit direction.
     */
    std::uint64_t
    storageBits() const
    {
        return capacity() * (46 + 46 + 5 + 3 + 2);
    }

    /** Heap bytes of the slot array (checkpoint accounting). */
    std::size_t
    footprintBytes() const
    {
        return entries_.capacity() * sizeof(Slot);
    }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t inserts() const { return inserts_; }

    /** Valid entries overwritten before a front-end hit extracted them. */
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Slot
    {
        BTBEntry entry{};
        std::uint64_t lru = 0;
        bool valid = false;
    };

    std::vector<Slot> entries_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_BTB_PREFETCH_BUFFER_HH
