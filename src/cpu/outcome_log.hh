/**
 * @file
 * The outcome log: the part of a core's behaviour that depends on its
 * stream alone, computed once and read by every core that replays the
 * stream.
 *
 * Two things a core does are functions of the stream, never of the
 * scheme, the core parameters or the timing:
 *
 *  - TAGE. Every scheme calls Scheme::predictControl exactly once per
 *    basic block, in stream order, and it predicts and trains TAGE on
 *    each non-degenerate conditional. So the sequence of TAGE
 *    mispredicts is fixed by the stream.
 *  - The data side. The backend draws, per retired instruction and in
 *    retire (= stream) order, whether it loads, misses the L1-D and
 *    misses the LLC, from one Rng. So which retired instructions miss
 *    is fixed by the data seed and the three rates.
 *
 * An OutcomeLog records both: one entry per conditional (the TAGE
 * mispredict bit plus a 15-bit fold of the branch PC and direction)
 * and the retired-instruction ordinals of the L1-D misses, each with
 * its LLC-or-memory bit. The first core to need an entry produces it,
 * under the log's mutex: TAGE predict+update on that core's own basic
 * block, or the draws of the next chunk of instructions. Published
 * entries never change and never move, so the log is a pure function
 * of its stream whichever core gets there first, and a core reading a
 * produced log takes the lock at most once per chunk.
 *
 * An OutcomeCursor is one core's position in a log, and plain
 * copyable state: a checkpoint clone or a parked core carries the log
 * handle and its ordinals and reads on from where the original stood.
 * Every conditional read checks the stored fold against the reader's
 * branch and panics on a mismatch, so a log shared by a core whose
 * stream is not the log's fails loudly instead of aliasing outcomes.
 * sim/outcome_store.hh keys the shared logs by stream.
 */

#ifndef SHOTGUN_CPU_OUTCOME_LOG_HH
#define SHOTGUN_CPU_OUTCOME_LOG_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "branch/tage.hh"
#include "common/random.hh"
#include "cpu/params.hh"

namespace shotgun
{

/** One stream's TAGE and data-side outcomes, shared by its cores. */
class OutcomeLog
{
  public:
    /** Conditionals or misses per storage chunk. */
    static constexpr std::uint64_t kChunkEntries = 4096;

    /** Retired instructions whose data draws one producer makes. */
    static constexpr std::uint64_t kDrawInstructions = 65536;

    /** A log of the data-side draws `params` sets (seed, three rates). */
    explicit OutcomeLog(const CoreParams &params);

    /** True when `params` sets the same data-side draws as this log. */
    bool drawsMatch(const CoreParams &params) const;

    /**
     * Bytes the log holds now: the object, TAGE's tables and every
     * chunk published so far. Read under the mutex, since readers
     * that produce grow it.
     */
    std::size_t bytes() const;

  private:
    friend class OutcomeCursor;

    /** Append-only chunked array: pushed entries never move. */
    template <typename T>
    struct Chunks
    {
        std::vector<std::unique_ptr<T[]>> chunks;
        std::uint64_t size = 0;

        void
        push(T value)
        {
            if (size % kChunkEntries == 0)
                chunks.push_back(std::make_unique<T[]>(kChunkEntries));
            chunks.back()[size % kChunkEntries] = value;
            ++size;
        }

        const T *
        chunkOf(std::uint64_t index) const
        {
            return chunks[index / kChunkEntries].get();
        }

        std::size_t
        bytes() const
        {
            return chunks.size() * kChunkEntries * sizeof(T) +
                   chunks.capacity() * sizeof(chunks[0]);
        }
    };

    /** Draw the next kDrawInstructions instructions' data side. */
    void drawChunk();

    /** The data-side draws: the seed and Rng::threshold of each rate. */
    const std::uint64_t dataSeed_;
    const std::uint64_t loadThreshold_;
    const std::uint64_t l1dMissThreshold_;
    const std::uint64_t llcDataMissThreshold_;

    mutable std::mutex mutex_; ///< Guards everything below.

    TagePredictor tage_;
    Rng dataRng_;

    /** Per conditional: fold << 1 | TAGE mispredicted. */
    Chunks<std::uint16_t> branches_;

    /** Per L1-D miss: retired ordinal << 1 | missed the LLC too. */
    Chunks<std::uint64_t> misses_;

    /** Instructions whose draws are published in misses_. */
    std::uint64_t drawn_ = 0;
};

/** One core's read position in an OutcomeLog (copyable). */
class OutcomeCursor
{
  public:
    /** A cursor at the start of `log`. */
    explicit OutcomeCursor(std::shared_ptr<OutcomeLog> log);

    /**
     * Whether TAGE mispredicts the next non-degenerate conditional of
     * the stream, which must be the branch at `pc` resolving `taken`:
     * panics when the log holds a different branch there.
     */
    bool
    mispredicts(Addr pc, bool taken)
    {
        const std::uint16_t fold = foldBranch(pc, taken);
        if (branch_ == branchEnd_)
            return fetchBranch(pc, taken, fold);
        return readBranch(fold);
    }

    /**
     * Retire `n` more instructions, calling `on_miss(to_memory)` for
     * each L1-D miss among them, in order; `to_memory` is true when
     * the miss also missed the LLC.
     */
    template <typename OnMiss>
    void
    retire(unsigned n, OnMiss &&on_miss)
    {
        const std::uint64_t end = retired_ + n;
        while (event_ < end) {
            if (eventIsMiss_)
                on_miss(eventToMemory_);
            nextEvent();
        }
        retired_ = end;
    }

    /** Conditionals read so far, and how many of them this cursor produced. */
    std::uint64_t branchesRead() const { return branch_; }
    std::uint64_t branchesProduced() const { return produced_; }

    /** Bytes of the log this cursor reads (OutcomeLog::bytes). */
    std::size_t logBytes() const { return log_->bytes(); }

  private:
    static std::uint16_t
    foldBranch(Addr pc, bool taken)
    {
        return static_cast<std::uint16_t>(
            ((pc ^ static_cast<Addr>(taken)) * 0x9e3779b97f4a7c15ULL) >>
            49);
    }

    bool
    readBranch(std::uint16_t fold)
    {
        const std::uint16_t entry =
            branchChunk_[branch_ % OutcomeLog::kChunkEntries];
        if (entry >> 1 != fold)
            mismatch(fold, entry);
        ++branch_;
        return (entry & 1) != 0;
    }

    /** At the end of the known entries: refresh, or produce the next. */
    bool fetchBranch(Addr pc, bool taken, std::uint16_t fold);

    [[noreturn]] void mismatch(std::uint16_t fold,
                               std::uint16_t entry) const;

    /** Step past the current data event to the next one. */
    void nextEvent();

    std::shared_ptr<OutcomeLog> log_;

    /** The next conditional, and the end of the known ones in its chunk. */
    std::uint64_t branch_ = 0;
    std::uint64_t branchEnd_ = 0;
    const std::uint16_t *branchChunk_ = nullptr;
    std::uint64_t produced_ = 0;

    /**
     * Instructions retired, and the ordinal of the next data event:
     * the next L1-D miss (eventIsMiss_), or else the end of the draws
     * known so far.
     */
    std::uint64_t retired_ = 0;
    std::uint64_t event_ = 0;
    bool eventIsMiss_ = false;
    bool eventToMemory_ = false;

    /** The next miss, and the end of the known ones in its chunk. */
    std::uint64_t miss_ = 0;
    std::uint64_t missEnd_ = 0;
    const std::uint64_t *missChunk_ = nullptr;
};

} // namespace shotgun

#endif // SHOTGUN_CPU_OUTCOME_LOG_HH
