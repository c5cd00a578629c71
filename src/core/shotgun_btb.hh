/**
 * @file
 * Shotgun's composite BTB organization: U-BTB + C-BTB + RIB queried
 * in parallel by the branch-prediction unit, plus the storage-budget
 * arithmetic that keeps the combined capacity equal to a conventional
 * BTB (Sec 5.2) and the scaling rules for the budget sweep (Sec 6.5).
 * Each of the three is a BtbTable (btb/btb_table.hh) of its own entry
 * format; only the U-BTB adds behaviour of its own.
 */

#ifndef SHOTGUN_CORE_SHOTGUN_BTB_HH
#define SHOTGUN_CORE_SHOTGUN_BTB_HH

#include <cstdint>

#include "btb/btb_table.hh"
#include "core/footprint.hh"

namespace shotgun
{

/**
 * One U-BTB entry (Sec 4.2.1). The U-BTB tracks the unconditional
 * branch working set -- the application's global control flow -- plus
 * two spatial footprints per entry: one for the call/jump target
 * region and one for the return region of the corresponding call (a
 * return's target region is the fall-through region of its call, so
 * the footprint lives with the call entry).
 */
struct UBTBEntry
{
    Addr bbStart = 0;
    Addr target = 0;
    std::uint8_t numInstrs = 1;

    /**
     * Single type bit: call-like (pushes the RAS: calls and traps)
     * versus plain unconditional jump.
     */
    bool isCall = false;

    /**
     * Only used by the no-RIB ablation (ShotgunBTBConfig::
     * dedicatedRIB == false): marks a return stored in the U-BTB,
     * wasting the entry's target and footprint fields -- the storage
     * inefficiency that motivates the dedicated RIB (Sec 4.2.1).
     */
    bool isReturn = false;

    /** Footprint of the call/jump target region. */
    SpatialFootprint callFootprint;

    /** Footprint of the return region (fall-through of this call). */
    SpatialFootprint returnFootprint;

    /**
     * Forward extent (blocks from entry to exit point) of the two
     * regions; only consulted by the EntireRegion ablation mode.
     */
    std::uint8_t callExtent = 0;
    std::uint8_t returnExtent = 0;

    Addr
    fallThrough() const
    {
        return bbStart + numInstrs * kInstrBytes;
    }
};

/**
 * The U-BTB, the heart of Shotgun. Default configuration (Sec 5.2):
 * 1536 entries, 6-way, 38-bit tag, 46-bit target, 5-bit size, 1-bit
 * type, 2x8-bit footprints = 106 bits/entry, 19.87KB. Beside the
 * table it keeps a refresh that preserves recorded footprints and its
 * footprint mode, whose format sets the footprint bits.
 */
class UBTB : public BtbTable<UBTBEntry, 46 + 5 + 1>
{
  public:
    UBTB(std::size_t entries, std::size_t ways,
         FootprintMode mode = FootprintMode::BitVector8)
        : BtbTable(entries, ways), mode_(mode),
          format_(FootprintFormat::forMode(mode))
    {
    }

    /**
     * Allocate or refresh an entry (retire-time or reactive fill).
     * Footprints of an existing entry are preserved unless
     * `reset_footprints` is set.
     */
    UBTBEntry &insert(const UBTBEntry &entry,
                      bool reset_footprints = false);

    /** Valid entries occupied by returns (no-RIB ablation metric). */
    std::size_t returnOccupancy() const;

    const FootprintFormat &format() const { return format_; }

    /** The table's bits plus the two regions' footprint bits. */
    unsigned bitsPerEntry() const;

    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(numEntries()) * bitsPerEntry();
    }

  private:
    FootprintMode mode_;
    FootprintFormat format_;
};

/**
 * One C-BTB entry; all branches are conditional, so no type field.
 * The C-BTB tracks only the local control flow of the currently
 * active code regions. Shotgun fills it proactively by predecoding
 * prefetched L1-I blocks, which is why a few hundred entries suffice
 * (Sec 6.4 shows 128 entries within 0.8% of a 1K-entry C-BTB).
 */
struct CBTBEntry
{
    Addr bbStart = 0;
    Addr target = 0;
    std::uint8_t numInstrs = 1;

    /**
     * Installed by predecode-driven prefill and not yet consumed by a
     * demand lookup. Uarch-probe lifecycle bookkeeping only; never
     * read by prediction logic and not counted in bitsPerEntry().
     */
    bool prefilled = false;

    CBTBEntry() = default;

    /**
     * The entry of a decoded conditional or straight-line split. A
     * conditional keeps its taken target; a split carries no branch,
     * so its "target" is its fall-through, which lets the BPU stride
     * over it without a resolution stall.
     */
    explicit CBTBEntry(const BTBEntry &decoded)
        : bbStart(decoded.bbStart),
          target(decoded.type == BranchType::Conditional
                     ? decoded.target
                     : decoded.fallThrough()),
          numInstrs(decoded.numInstrs)
    {
    }
};

/**
 * Default configuration (Sec 5.2): 128 entries, 4-way, 41-bit tag,
 * 22-bit target offset (SPARC v9 conditional displacement limit),
 * 5-bit size, 2-bit direction = 70 bits/entry, 1.1KB.
 */
using CBTB = BtbTable<CBTBEntry, 22 + 5 + 2>;

/**
 * One Return Instruction Buffer entry: no target (RAS) and no
 * footprint (call entry). Returns take their target from the RAS and
 * their region footprint from the corresponding call's U-BTB entry,
 * so storing them in the U-BTB would waste more than half of each
 * entry (Sec 4.2.1).
 */
struct RIBEntry
{
    Addr bbStart = 0;
    std::uint8_t numInstrs = 1;
    bool isTrapReturn = false;
};

/**
 * Default configuration (Sec 5.2): 512 entries, 4-way, 39-bit tag,
 * 5-bit size, 1-bit type = 45 bits/entry, 2.8KB.
 */
using RIB = BtbTable<RIBEntry, 5 + 1>;

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

  private:
    ShotgunBTBConfig config_;
    UBTB ubtb_;
    CBTB cbtb_;
    RIB rib_;
};

} // namespace shotgun

#endif // SHOTGUN_CORE_SHOTGUN_BTB_HH
