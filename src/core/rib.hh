/**
 * @file
 * Return Instruction Buffer (RIB): a dedicated structure for return
 * and trap-return instructions. Returns take their target from the
 * RAS and their region footprint from the corresponding call's U-BTB
 * entry, so storing them in the U-BTB would waste more than half of
 * each entry (Sec 4.2.1); the RIB stores only tag, size and a 1-bit
 * type.
 *
 * Default configuration (Sec 5.2): 512 entries, 4-way, 39-bit tag,
 * 5-bit size, 1-bit type = 45 bits/entry, 2.8KB.
 */

#ifndef SHOTGUN_CORE_RIB_HH
#define SHOTGUN_CORE_RIB_HH

#include "btb/assoc_table.hh"
#include "btb/btb_entry.hh"
#include "common/stats.hh"

namespace shotgun
{

/** One RIB entry: no target (RAS) and no footprint (call entry). */
struct RIBEntry
{
    Addr bbStart = 0;
    std::uint8_t numInstrs = 1;
    bool isTrapReturn = false;
};

class RIB
{
  public:
    RIB(std::size_t entries, std::size_t ways);

    const RIBEntry *lookup(Addr bb_start);
    const RIBEntry *probe(Addr bb_start) const;
    void insert(const RIBEntry &entry);

    std::size_t numEntries() const { return table_.capacity(); }
    std::size_t occupancy() const { return table_.occupancy(); }

    /** Heap bytes of the entry arrays (checkpoint accounting). */
    std::size_t footprintBytes() const { return table_.footprintBytes(); }

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

    /** Bits per entry: tag + 5-bit size + 1-bit type. */
    unsigned
    bitsPerEntry() const
    {
        return tagBits() + 5 + 1;
    }

    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(numEntries()) * bitsPerEntry();
    }

    void clear() { table_.clear(); }

  private:
    SetAssocTable<RIBEntry> table_;
    Counter lookups_;
    Counter hits_;
};

} // namespace shotgun

#endif // SHOTGUN_CORE_RIB_HH
