/**
 * @file
 * Conditional-branch BTB (C-BTB): a small structure tracking only the
 * local control flow of the currently active code regions. Shotgun
 * fills it proactively by predecoding prefetched L1-I blocks, which is
 * why a few hundred entries suffice (Sec 6.4 shows 128 entries within
 * 0.8% of a 1K-entry C-BTB).
 *
 * Default configuration (Sec 5.2): 128 entries, 4-way, 41-bit tag,
 * 22-bit target offset (SPARC v9 conditional displacement limit),
 * 5-bit size, 2-bit direction = 70 bits/entry, 1.1KB.
 */

#ifndef SHOTGUN_CORE_CBTB_HH
#define SHOTGUN_CORE_CBTB_HH

#include "btb/assoc_table.hh"
#include "btb/btb_entry.hh"
#include "common/stats.hh"

namespace shotgun
{

/** One C-BTB entry; all branches are conditional, so no type field. */
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
};

class CBTB
{
  public:
    CBTB(std::size_t entries, std::size_t ways);

    const CBTBEntry *lookup(Addr bb_start);
    const CBTBEntry *probe(Addr bb_start) const;
    void insert(const CBTBEntry &entry);

    /**
     * Proactive (predecode-driven) install: identical placement to
     * insert(), plus prefill lifecycle accounting (uarch probes).
     */
    void insertPrefill(const CBTBEntry &entry);

    std::size_t numEntries() const { return table_.capacity(); }
    std::size_t occupancy() const { return table_.occupancy(); }

    /** Heap bytes of the entry arrays (checkpoint accounting). */
    std::size_t footprintBytes() const { return table_.footprintBytes(); }

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return lookups() - hits(); }
    std::uint64_t prefills() const { return prefills_.value(); }

    // Prefill lifecycle (monotonic; reported by the uarch probes).
    std::uint64_t prefillUses() const { return prefillUses_.value(); }
    std::uint64_t prefillEvictions() const { return prefillEvictions_.value(); }
    std::uint64_t prefillPollution() const { return prefillPollution_.value(); }

    void
    resetStats()
    {
        lookups_.reset();
        hits_.reset();
        prefills_.reset();
    }

    unsigned
    tagBits() const
    {
        return kVirtualAddrBits - 2 - floorLog2(table_.sets());
    }

    /**
     * Bits per entry: tag + 22-bit PC-relative target offset + 5-bit
     * size + 2-bit direction hint.
     */
    unsigned
    bitsPerEntry() const
    {
        return tagBits() + 22 + 5 + 2;
    }

    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(numEntries()) * bitsPerEntry();
    }

    void clear() { table_.clear(); }

  private:
    SetAssocTable<CBTBEntry> table_;
    Counter lookups_;
    Counter hits_;
    Counter prefills_;
    Counter prefillUses_;
    Counter prefillEvictions_;
    Counter prefillPollution_;
};

} // namespace shotgun

#endif // SHOTGUN_CORE_CBTB_HH
