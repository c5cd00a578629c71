/**
 * @file
 * Fetch Target Queue: the decoupling queue between the branch
 * prediction unit and the fetch engine (FDIP's central structure,
 * reused by Boomerang and Shotgun). Entries are dynamic basic blocks
 * on the predicted (here: architecturally correct) path; prefetch
 * probes are issued as entries are inserted.
 */

#ifndef SHOTGUN_CPU_FTQ_HH
#define SHOTGUN_CPU_FTQ_HH

#include <vector>

#include "common/logging.hh"
#include "trace/instruction.hh"

namespace shotgun
{

/** One FTQ entry: a basic block plus fetch progress. */
struct FTQEntry
{
    BBRecord record;
    std::uint8_t fetched = 0;  ///< Instructions already delivered.
    Addr pendingBlock = 0;     ///< Block currently being waited on.
    bool blockReady = false;   ///< Current block verified in L1-I.
};

/** A fixed-capacity ring buffer of FTQ entries. */
class FTQ
{
  public:
    explicit FTQ(std::size_t entries) : slots_(entries)
    {
        fatal_if(entries == 0, "FTQ needs at least one entry");
    }

    bool full() const { return size_ >= slots_.size(); }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    /** Heap bytes of the ring. */
    std::size_t
    footprintBytes() const
    {
        return slots_.capacity() * sizeof(FTQEntry);
    }

    void
    push(const BBRecord &record)
    {
        panic_if(full(), "FTQ overflow");
        std::size_t tail = head_ + size_;
        if (tail >= slots_.size())
            tail -= slots_.size();
        slots_[tail] = FTQEntry{};
        slots_[tail].record = record;
        ++size_;
    }

    FTQEntry &front() { return slots_[head_]; }

    void
    pop()
    {
        if (++head_ == slots_.size())
            head_ = 0;
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::vector<FTQEntry> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_CPU_FTQ_HH
