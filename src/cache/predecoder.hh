/**
 * @file
 * Predecoder: extracts branch metadata from instruction cache blocks.
 * Real hardware scans the block's instruction bytes; our equivalent
 * consults the program image oracle, which yields exactly the basic
 * blocks whose first instruction lies in the block -- the same
 * information, without modelling instruction encodings.
 *
 * Used by three mechanisms from the paper:
 *  - Boomerang's reactive BTB fill (extract the missing branch and
 *    stage the rest in the BTB prefetch buffer),
 *  - Shotgun's proactive C-BTB prefill from prefetched blocks,
 *  - Confluence's BTB prefill during stream replay.
 */

#ifndef SHOTGUN_CACHE_PREDECODER_HH
#define SHOTGUN_CACHE_PREDECODER_HH

#include <vector>

#include "btb/btb_entry.hh"
#include "trace/program.hh"

namespace shotgun
{

class Predecoder
{
  public:
    explicit Predecoder(const Program &program);

    /**
     * Extract all basic blocks starting inside `block_number`.
     * The result is valid until the next call.
     */
    const std::vector<BTBEntry> &decodeBlock(Addr block_number);

    /**
     * Find the basic block starting exactly at `bb_start` inside its
     * block.
     * @return true and fills `out` when found.
     */
    bool decodeBB(Addr bb_start, BTBEntry &out) const;

    /** Heap bytes of the result buffer. */
    std::size_t
    footprintBytes() const
    {
        return result_.capacity() * sizeof(BTBEntry);
    }

  private:
    const Program &program_;
    std::vector<BTBEntry> result_;
};

} // namespace shotgun

#endif // SHOTGUN_CACHE_PREDECODER_HH
