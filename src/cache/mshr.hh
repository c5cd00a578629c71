/**
 * @file
 * Miss Status Holding Registers: track in-flight fills keyed by block
 * number, with completion times. Demand accesses piggyback on
 * in-flight prefetches of the same block (that is what makes a late
 * prefetch still partially useful -- the "in-flight prefetches"
 * effect the paper's stall-cycle metric captures).
 *
 * The file is a flat array of at most kMaxEntries entries with a
 * cached earliest completion time, so the per-cycle drain of a file
 * with nothing due is one comparison.
 */

#ifndef SHOTGUN_CACHE_MSHR_HH
#define SHOTGUN_CACHE_MSHR_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace shotgun
{

class MSHRFile
{
  public:
    struct Entry
    {
        Addr block = 0;
        Cycle readyAt = 0;
        bool isPrefetch = false;
        bool demandWaiting = false;
    };

    /** Largest supported file (Table 3's 64-entry prefetch buffer). */
    static constexpr std::size_t kMaxEntries = 64;

    explicit MSHRFile(std::size_t entries = kMaxEntries);

    /**
     * In-flight entry for the block, or nullptr. The pointer is valid
     * until the next drain().
     */
    Entry *
    find(Addr block_number)
    {
        for (std::size_t i = 0; i < count_; ++i) {
            if (entries_[i].block == block_number)
                return &entries_[i];
        }
        return nullptr;
    }

    /**
     * Allocate an entry.
     * @return nullptr when the file is full (request must be dropped
     * or retried by the caller).
     */
    Entry *allocate(Addr block_number, Cycle ready_at, bool is_prefetch);

    /** Completion time of the earliest in-flight fill; kNever if none. */
    Cycle nextReadyAt() const { return earliest_; }

    /**
     * Complete every entry with readyAt <= now, invoking
     * fn(const Entry&) for each in (readyAt, block) order. An entry
     * allocated by fn joins the same drain if it is already due.
     */
    template <typename Fn>
    void
    drain(Cycle now, Fn &&fn)
    {
        while (earliest_ <= now) {
            std::size_t pick = 0;
            for (std::size_t i = 1; i < count_; ++i) {
                const Entry &e = entries_[i];
                const Entry &best = entries_[pick];
                if (e.readyAt < best.readyAt ||
                    (e.readyAt == best.readyAt && e.block < best.block))
                    pick = i;
            }
            const Entry entry = entries_[pick];
            entries_[pick] = entries_[--count_];
            updateEarliest();
            fn(entry);
        }
    }

    bool full() const { return count_ >= capacity_; }
    std::size_t inFlight() const { return count_; }
    std::size_t capacity() const { return capacity_; }

    void clear();

  private:
    void updateEarliest();

    std::size_t capacity_;
    std::size_t count_ = 0;
    Cycle earliest_ = kNever;
    std::array<Entry, kMaxEntries> entries_{};
};

} // namespace shotgun

#endif // SHOTGUN_CACHE_MSHR_HH
