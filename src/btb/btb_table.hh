/**
 * @file
 * The one BTB table every BTB in the model is: the conventional BTB
 * of the baseline, FDIP, Boomerang, Confluence and RDIP, and
 * Shotgun's U-BTB, C-BTB and RIB (Sec 4.2.1). Each is a
 * set-associative, LRU table of basic-block entries keyed by
 * btbKey(bbStart); they differ only in their entry format and in how
 * many payload bits that format costs beside the tag (Sec 5.2).
 *
 * A demand lookup updates recency; a probe (prefetchers, the
 * footprint recorder) does not. A table whose entries carry a
 * `prefilled` flag (the conventional BTB and the C-BTB) also takes
 * prefills -- Confluence's and Shotgun's predecode-driven installs --
 * and counts their lifecycle for the uarch probes; the flag and the
 * counts are bookkeeping only, never read by prediction logic.
 */

#ifndef SHOTGUN_BTB_BTB_TABLE_HH
#define SHOTGUN_BTB_BTB_TABLE_HH

#include <cstdint>
#include <type_traits>

#include "btb/assoc_table.hh"
#include "btb/btb_entry.hh"

namespace shotgun
{

/** Prefill lifecycle of a prefill-capable table (monotonic). */
struct PrefillCounts
{
    std::uint64_t prefills = 0;  ///< Entries installed by a prefill.
    std::uint64_t uses = 0;      ///< Prefills a demand lookup hit (timely).
    std::uint64_t evictions = 0; ///< Prefills evicted before any demand use.
    std::uint64_t pollution = 0; ///< Demand entries a prefill evicted.
};

/** True for entry formats that carry a `prefilled` flag. */
template <typename Entry, typename = void>
constexpr bool kPrefillable = false;
template <typename Entry>
constexpr bool kPrefillable<Entry, std::void_t<decltype(Entry::prefilled)>> =
    true;

/** What a table without prefills keeps of the counts: nothing. */
struct NoPrefillCounts
{
};

/**
 * @tparam Entry       the entry format (BTBEntry, CBTBEntry, ...).
 * @tparam PayloadBits bits an entry stores beside its tag.
 */
template <typename Entry, unsigned PayloadBits>
class BtbTable
    : private std::conditional_t<kPrefillable<Entry>, PrefillCounts,
                                 NoPrefillCounts>
{
  public:
    /**
     * @param entries total entry count.
     * @param ways    preferred associativity; chooseWays() settles
     *                on one that divides `entries`.
     */
    explicit BtbTable(std::size_t entries, std::size_t ways = 4)
        : table_(entries / chooseWays(entries, ways),
                 chooseWays(entries, ways))
    {
    }

    /**
     * Demand lookup: updates recency. The first demand hit on a
     * prefilled entry counts the prefill as timely.
     */
    const Entry *
    lookup(Addr bb_start)
    {
        Entry *entry = table_.touch(btbKey(bb_start));
        if constexpr (kPrefillable<Entry>) {
            if (entry && entry->prefilled) {
                ++this->uses;
                entry->prefilled = false;
            }
        }
        return entry;
    }

    /** Probe without touching recency or counts. */
    Entry *probe(Addr bb_start) { return table_.find(btbKey(bb_start)); }

    const Entry *
    probe(Addr bb_start) const
    {
        return table_.find(btbKey(bb_start));
    }

    /** Install or refresh an entry (demand training). */
    void
    insert(const Entry &entry)
    {
        if constexpr (kPrefillable<Entry>) {
            Entry evicted;
            if (table_.insert(btbKey(entry.bbStart), entry, nullptr,
                              &evicted) &&
                evicted.prefilled) {
                // A still-unused prefill displaced by demand training.
                ++this->evictions;
            }
        } else {
            table_.insert(btbKey(entry.bbStart), entry);
        }
    }

    /**
     * Install an entry on behalf of a prefill: insert()'s placement
     * and replacement, plus the prefilled mark and its counts.
     */
    void
    insertPrefill(const Entry &entry)
    {
        ++this->prefills;
        Entry marked = entry;
        marked.prefilled = true;
        Entry evicted;
        if (table_.insert(btbKey(marked.bbStart), marked, nullptr,
                          &evicted)) {
            if (evicted.prefilled)
                ++this->evictions;
            else
                ++this->pollution;
        }
    }

    /** Prefill lifecycle so far (uarch probes). */
    const PrefillCounts &prefillCounts() const { return *this; }

    std::size_t numEntries() const { return table_.capacity(); }
    std::size_t occupancy() const { return table_.occupancy(); }

    /** Heap bytes of the entry arrays (checkpoint accounting). */
    std::size_t footprintBytes() const { return table_.footprintBytes(); }

    /** Tag width given the set count (48-bit VA, 4-byte instrs). */
    unsigned
    tagBits() const
    {
        return kVirtualAddrBits - 2 - floorLog2(table_.sets());
    }

    unsigned bitsPerEntry() const { return tagBits() + PayloadBits; }

    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(numEntries()) * bitsPerEntry();
    }

  protected:
    SetAssocTable<Entry> table_;
};

} // namespace shotgun

#endif // SHOTGUN_BTB_BTB_TABLE_HH
