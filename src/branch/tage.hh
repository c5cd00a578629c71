/**
 * @file
 * TAGE direction predictor (Seznec & Michaud, "A case for (partially)
 * tagged geometric history length branch prediction", JILP 2006) --
 * the predictor the paper's modelled core uses with an 8KB storage
 * budget (Table 3).
 *
 * The implementation follows the canonical structure: a bimodal base
 * predictor plus N partially-tagged tables indexed with geometrically
 * increasing global-history lengths via incrementally-folded history
 * registers, usefulness counters with periodic aging, and the
 * use-alt-on-newly-allocated heuristic.
 */

#ifndef SHOTGUN_BRANCH_TAGE_HH
#define SHOTGUN_BRANCH_TAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace shotgun
{

/** TAGE geometry; the default fits the paper's 8KB budget. */
struct TageParams
{
    /** log2 of bimodal base-table entries. */
    unsigned baseBits = 13; // 8K entries x 2b = 2KB

    /** Entries per tagged table (power of two). */
    unsigned taggedEntries = 512;

    /** Geometric history lengths, shortest first. */
    std::vector<unsigned> historyLengths = {4, 9, 19, 41, 88, 190};

    /** Tag widths per tagged table. */
    std::vector<unsigned> tagBits = {8, 8, 9, 10, 11, 12};

    /** Usefulness-counter aging period in updates. */
    std::uint64_t uResetPeriod = 256 * 1024;
};

/**
 * Usage protocol: predict(pc) followed immediately by update(pc,
 * taken) for the same branch -- the outcome is known as soon as the
 * prediction is made, and predict() stashes metadata update() reads.
 */
class TagePredictor
{
  public:
    explicit TagePredictor(const TageParams &params = TageParams{},
                           std::uint64_t seed = 0x7a6e);

    bool predict(Addr pc);
    void update(Addr pc, bool taken);

    /** Total predictor state in bits (the paper's 8KB budget). */
    std::uint64_t storageBits() const;

    /** Number of tagged tables. */
    std::size_t numTables() const { return tables_.size(); }

    /** Heap bytes of the base and tagged tables (checkpoint accounting). */
    std::size_t footprintBytes() const;

  private:
    static constexpr std::size_t kHistBuf = 1024;

    struct TageEntry
    {
        std::int8_t ctr = 0;   ///< 3-bit signed prediction counter.
        std::uint16_t tag = 0;
        std::uint8_t u = 0;    ///< 2-bit usefulness counter.
    };

    /** Incrementally folded history register (Michaud's technique). */
    struct FoldedHistory
    {
        std::uint32_t comp = 0;
        unsigned compLength = 0;
        unsigned origLength = 0;
        unsigned outPoint = 0;

        void
        init(unsigned orig, unsigned comp_len)
        {
            compLength = comp_len;
            origLength = orig;
            outPoint = orig % comp_len;
            comp = 0;
        }

        void
        update(const std::uint8_t *hist, std::size_t ptr)
        {
            comp = (comp << 1) | hist[ptr];
            comp ^= static_cast<std::uint32_t>(
                        hist[(ptr + origLength) % kHistBuf])
                    << outPoint;
            comp ^= comp >> compLength;
            comp &= (1u << compLength) - 1;
        }
    };

    struct Table
    {
        std::vector<TageEntry> entries;
        unsigned historyLength = 0;
        unsigned tagWidth = 0;
        FoldedHistory indexFold;
        FoldedHistory tagFold0;
        FoldedHistory tagFold1;
    };

    /** Prediction-time metadata stashed for the paired update(). */
    struct PredictContext
    {
        bool valid = false;
        Addr pc = 0;
        int provider = -1; ///< Tagged table index, -1 = base.
        int alt = -1;
        bool providerPred = false;
        bool altPred = false;
        bool finalPred = false;
        bool providerWeak = false;
        std::array<std::uint32_t, 16> indices{};
        std::array<std::uint16_t, 16> tags{};
    };

    std::uint32_t tableIndex(std::size_t table, Addr pc) const;
    std::uint16_t tableTag(std::size_t table, Addr pc) const;
    bool basePredict(Addr pc) const;
    void baseUpdate(Addr pc, bool taken);
    void pushHistory(bool taken);
    void ageUsefulness();

    TageParams params_;
    std::vector<Table> tables_;
    std::vector<std::uint8_t> base_; ///< 2-bit counters, stored widened.
    std::uint8_t ghist_[kHistBuf] = {};
    std::size_t histPtr_ = 0;
    std::int8_t useAltOnNa_ = 0; ///< 4-bit signed [-8, 7].
    std::uint64_t ageCountdown_ = 0; ///< Updates until the next aging.
    std::uint64_t lfsr_;         ///< Allocation randomizer.
    PredictContext ctx_;
};

} // namespace shotgun

#endif // SHOTGUN_BRANCH_TAGE_HH
