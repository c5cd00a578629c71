/**
 * @file
 * Unconditional-branch BTB (U-BTB), the heart of Shotgun (Sec 4.2.1).
 * Tracks the unconditional branch working set -- the application's
 * global control flow -- plus two spatial footprints per entry: one
 * for the call/jump target region and one for the return region of
 * the corresponding call (a return's target region is the fall-through
 * region of its call, so the footprint lives with the call entry).
 *
 * Default configuration (Sec 5.2): 1536 entries, 6-way, 38-bit tag,
 * 46-bit target, 5-bit size, 1-bit type, 2x8-bit footprints =
 * 106 bits/entry, 19.87KB.
 */

#ifndef SHOTGUN_CORE_UBTB_HH
#define SHOTGUN_CORE_UBTB_HH

#include "btb/assoc_table.hh"
#include "btb/btb_entry.hh"
#include "common/stats.hh"
#include "core/footprint.hh"

namespace shotgun
{

/** One U-BTB entry. */
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

class UBTB
{
  public:
    UBTB(std::size_t entries, std::size_t ways,
         FootprintMode mode = FootprintMode::BitVector8);

    /** Demand lookup from the branch-prediction unit. */
    const UBTBEntry *lookup(Addr bb_start);

    /** Probe without stats/recency (recorder and prefetcher use). */
    UBTBEntry *probe(Addr bb_start);
    const UBTBEntry *probe(Addr bb_start) const;

    /**
     * Allocate or refresh an entry (retire-time or reactive fill).
     * Footprints of an existing entry are preserved unless
     * `reset_footprints` is set.
     */
    UBTBEntry &insert(const UBTBEntry &entry,
                      bool reset_footprints = false);

    std::size_t numEntries() const { return table_.capacity(); }
    std::size_t occupancy() const { return table_.occupancy(); }

    /** Heap bytes of the entry arrays (checkpoint accounting). */
    std::size_t footprintBytes() const { return table_.footprintBytes(); }

    /** Valid entries occupied by returns (no-RIB ablation metric). */
    std::size_t returnOccupancy() const;

    FootprintMode mode() const { return mode_; }
    const FootprintFormat &format() const { return format_; }

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return lookups() - hits(); }

    void
    resetStats()
    {
        lookups_.reset();
        hits_.reset();
    }

    unsigned
    tagBits() const
    {
        return kVirtualAddrBits - 2 - floorLog2(table_.sets());
    }

    /** Bits per entry: tag + target + size + type + footprints. */
    unsigned bitsPerEntry() const;

    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(numEntries()) * bitsPerEntry();
    }

    void clear() { table_.clear(); }

  private:
    SetAssocTable<UBTBEntry> table_;
    FootprintMode mode_;
    FootprintFormat format_;
    Counter lookups_;
    Counter hits_;
};

} // namespace shotgun

#endif // SHOTGUN_CORE_UBTB_HH
