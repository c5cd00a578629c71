/**
 * @file
 * Shotgun's composite BTB organization: U-BTB + C-BTB + RIB queried
 * in parallel by the branch-prediction unit, plus the storage-budget
 * arithmetic that keeps the combined capacity equal to a conventional
 * BTB (Sec 5.2) and the scaling rules for the budget sweep (Sec 6.5).
 */

#ifndef SHOTGUN_CORE_SHOTGUN_BTB_HH
#define SHOTGUN_CORE_SHOTGUN_BTB_HH

#include <cstdint>

#include "core/cbtb.hh"
#include "core/footprint.hh"
#include "core/rib.hh"
#include "core/ubtb.hh"

namespace shotgun
{

/** Sizing of the three BTBs plus the region-prefetch mechanism. */
struct ShotgunBTBConfig
{
    std::size_t ubtbEntries = 1536;
    std::size_t ubtbWays = 6;
    std::size_t cbtbEntries = 128;
    std::size_t cbtbWays = 4;
    std::size_t ribEntries = 512;
    std::size_t ribWays = 4;
    FootprintMode mode = FootprintMode::BitVector8;

    /**
     * When false, returns are stored in the U-BTB like any other
     * unconditional branch (the design Sec 4.2.1 argues against);
     * the freed RIB budget is reinvested in U-BTB entries by
     * withoutRIB().
     */
    bool dedicatedRIB = true;

    /**
     * Configuration using the storage budget of a conventional
     * `conventional_entries`-entry BTB (Sec 6.5): entry counts scale
     * proportionally from the 2K baseline (U-BTB 0.75x, RIB 0.25x,
     * C-BTB 0.0625x), except at the 8K point where the U-BTB caps at
     * 4K entries -- enough for the whole unconditional working set
     * per Fig 4 -- and the freed budget expands the RIB to 1K and the
     * C-BTB to 4K entries.
     */
    static ShotgunBTBConfig forBudgetOf(std::size_t conventional_entries);

    /**
     * Configuration for a region-prefetch ablation arm (Figs 8-10) at
     * the default 2K-equivalent budget. NoBitVector reinvests the
     * footprint bits into additional U-BTB entries, as in the paper;
     * BitVector32 keeps the entry count and is granted the extra
     * storage (an upper bound, per Sec 6.3).
     */
    static ShotgunBTBConfig forMode(FootprintMode mode);

    /**
     * Design ablation: no dedicated RIB; returns live in the U-BTB
     * and the RIB's 2.8KB budget buys ~210 extra (107-bit) U-BTB
     * entries instead.
     */
    static ShotgunBTBConfig withoutRIB();
};

/** Which structure serviced a Shotgun BTB lookup. */
enum class ShotgunHit
{
    UBTBHit,
    CBTBHit,
    RIBHit,
    Miss,
};

/** Result of the parallel three-structure lookup. */
struct ShotgunLookup
{
    ShotgunHit where = ShotgunHit::Miss;

    /** Unified view of the hit (target invalid for RIB hits). */
    BTBEntry entry;

    /** Set on U-BTB hits, for footprint-driven prefetching. */
    const UBTBEntry *uentry = nullptr;

    /** Set on RIB hits. */
    const RIBEntry *rentry = nullptr;

    bool hit() const { return where != ShotgunHit::Miss; }
};

/**
 * The three BTBs behind one lookup port. Fill paths stay separate:
 * the footprint recorder fills the U-BTB/RIB at retire, the
 * predecoder prefills the C-BTB, and the reactive (Boomerang) path
 * fills whichever structure the missing branch belongs to.
 */
class ShotgunBTB
{
  public:
    explicit ShotgunBTB(const ShotgunBTBConfig &config);

    /** Parallel demand lookup of U-BTB, C-BTB and RIB. */
    ShotgunLookup lookup(Addr bb_start);

    /** Route a predecoded/retired branch to its home structure. */
    void insertByType(const BTBEntry &entry);

    UBTB &ubtb() { return ubtb_; }
    CBTB &cbtb() { return cbtb_; }
    RIB &rib() { return rib_; }
    const UBTB &ubtb() const { return ubtb_; }
    const CBTB &cbtb() const { return cbtb_; }
    const RIB &rib() const { return rib_; }

    const ShotgunBTBConfig &config() const { return config_; }
    const FootprintFormat &format() const { return ubtb_.format(); }
    FootprintMode mode() const { return config_.mode; }

    std::uint64_t
    storageBits() const
    {
        if (!config_.dedicatedRIB) {
            // One extra type bit per U-BTB entry, no RIB.
            return ubtb_.storageBits() + ubtb_.numEntries() +
                   cbtb_.storageBits();
        }
        return ubtb_.storageBits() + cbtb_.storageBits() +
               rib_.storageBits();
    }

    /** Heap bytes of the three tables (checkpoint accounting). */
    std::size_t
    footprintBytes() const
    {
        return ubtb_.footprintBytes() + cbtb_.footprintBytes() +
               rib_.footprintBytes();
    }

    void
    resetStats()
    {
        ubtb_.resetStats();
        cbtb_.resetStats();
        rib_.resetStats();
    }

    void
    clear()
    {
        ubtb_.clear();
        cbtb_.clear();
        rib_.clear();
    }

  private:
    ShotgunBTBConfig config_;
    UBTB ubtb_;
    CBTB cbtb_;
    RIB rib_;
};

} // namespace shotgun

#endif // SHOTGUN_CORE_SHOTGUN_BTB_HH
