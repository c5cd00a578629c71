/**
 * @file
 * Return Address Stack.
 *
 * Shotgun extends the conventional RAS (Sec 4.2.3): on a call, the
 * basic-block address of the *call itself* is pushed alongside the
 * return address, so that a RIB hit on the matching return can index
 * the U-BTB with the call's entry and retrieve the Return Footprint.
 * Because the RAS has only tens of entries, the extra field costs a
 * negligible amount of storage.
 */

#ifndef SHOTGUN_BRANCH_RAS_HH
#define SHOTGUN_BRANCH_RAS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace shotgun
{

/**
 * Circular return address stack. Overflow wraps and silently
 * overwrites the oldest entry (hardware behaviour); underflow returns
 * an invalid entry, which the front end treats as "no prediction".
 */
class ReturnAddressStack
{
  public:
    struct Entry
    {
        Addr returnAddr = 0;  ///< Fall-through of the call.
        Addr callBBAddr = 0;  ///< Basic-block address of the call
                              ///< (Shotgun extension; 0 if unused).
        bool valid = false;
    };

    explicit ReturnAddressStack(std::size_t entries = 32);

    /** Push on a call. @param call_bb basic block containing it. */
    void push(Addr return_addr, Addr call_bb);

    /** Pop on a return; invalid entry when the stack is empty. */
    Entry pop();

    /** Top of stack without popping; invalid when empty. */
    Entry peek() const;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return stack_.size(); }

    /** Heap bytes of the stack array. */
    std::size_t
    footprintBytes() const
    {
        return stack_.capacity() * sizeof(Entry);
    }

    /** Number of pushes that overwrote a live entry. */
    std::uint64_t overflows() const { return overflows_; }

    /** Number of pops from an empty stack. */
    std::uint64_t underflows() const { return underflows_; }

    void clear();

    /**
     * Storage in bits: two 48-bit addresses per entry (the second is
     * the Shotgun extension; a conventional RAS stores only one).
     */
    std::uint64_t
    storageBits() const
    {
        return stack_.size() * 2 * kVirtualAddrBits;
    }

  private:
    std::vector<Entry> stack_;
    std::size_t top_ = 0;  ///< Index of the next free slot.
    std::size_t size_ = 0; ///< Live entries (<= capacity).
    std::uint64_t overflows_ = 0;
    std::uint64_t underflows_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_BRANCH_RAS_HH
