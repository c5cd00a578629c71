/**
 * @file
 * Conventional basic-block-oriented BTB, as used by the no-prefetch
 * baseline, FDIP and Boomerang. The default 2K-entry configuration
 * matches the paper's Table 3 / Sec 5.2: 4-way, 512 sets, 37-bit tag,
 * 46-bit target, 5-bit size, 3-bit type, 2-bit direction hint =
 * 93 bits per entry, 23.25KB total.
 */

#ifndef SHOTGUN_BTB_CONVENTIONAL_BTB_HH
#define SHOTGUN_BTB_CONVENTIONAL_BTB_HH

#include "btb/assoc_table.hh"
#include "btb/btb_entry.hh"
#include "common/stats.hh"

namespace shotgun
{

class ConventionalBTB
{
  public:
    /**
     * @param entries total entry count.
     * @param ways    associativity (entries must divide evenly).
     */
    explicit ConventionalBTB(std::size_t entries = 2048,
                             std::size_t ways = 4);

    /** Demand lookup; updates recency and hit/miss stats. */
    const BTBEntry *lookup(Addr bb_start);

    /** Probe without touching recency or stats (for prefetchers). */
    const BTBEntry *probe(Addr bb_start) const;

    /** Install or refresh an entry. */
    void insert(const BTBEntry &entry);

    /**
     * Install an entry on behalf of a prefill mechanism (Confluence's
     * predecode-and-prefill). Identical placement/replacement to
     * insert(); additionally marks the entry prefilled and maintains
     * the prefill lifecycle counters (uarch probes).
     */
    void insertPrefill(const BTBEntry &entry);

    std::size_t numEntries() const { return table_.capacity(); }
    std::size_t occupancy() const { return table_.occupancy(); }

    /** Heap bytes of the entry arrays (checkpoint accounting). */
    std::size_t footprintBytes() const { return table_.footprintBytes(); }

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return lookups_.value() - hits_.value(); }

    // Prefill lifecycle (monotonic; reported by the uarch probes).
    std::uint64_t prefills() const { return prefills_.value(); }
    std::uint64_t prefillUses() const { return prefillUses_.value(); }
    std::uint64_t prefillEvictions() const { return prefillEvictions_.value(); }
    std::uint64_t prefillPollution() const { return prefillPollution_.value(); }

    void
    resetStats()
    {
        lookups_.reset();
        hits_.reset();
    }

    /** Tag width given the set count (48-bit VA, 4-byte instrs). */
    unsigned
    tagBits() const
    {
        return kVirtualAddrBits - 2 - floorLog2(table_.sets());
    }

    /** Bits per entry: tag + target + size + type + direction. */
    unsigned
    bitsPerEntry() const
    {
        return tagBits() + 46 + 5 + 3 + 2;
    }

    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(numEntries()) * bitsPerEntry();
    }

    void clear() { table_.clear(); }

  private:
    SetAssocTable<BTBEntry> table_;
    Counter lookups_;
    Counter hits_;
    Counter prefills_;
    Counter prefillUses_;
    Counter prefillEvictions_;
    Counter prefillPollution_;
};

} // namespace shotgun

#endif // SHOTGUN_BTB_CONVENTIONAL_BTB_HH
