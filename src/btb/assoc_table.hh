/**
 * @file
 * Generic set-associative, LRU-replacement lookup table used by every
 * BTB variant and by RDIP's and Confluence's tables. Keys are
 * pre-shifted identifiers (basic-block address >> 2 for BTBs); the
 * set index is key modulo the number of sets, and the full key acts
 * as the tag, so the model never suffers false aliasing (matching the
 * paper's full-length tag storage accounting).
 *
 * The table is dense: every way of every set has a slot from the
 * start. That suits the small, well-filled BTBs, whose lookups are on
 * the BPU's path; the caches, whose LLC is mostly empty in a run, keep
 * only their resident lines instead (cache/cache.hh) and take just
 * chooseWays() from here.
 *
 * Keys, valid bits, LRU stamps and values live in separate arrays, so
 * a probe scans only the dense key array of its set. Power-of-two set
 * counts index with a mask; other counts (the storage-budget
 * ablations, e.g. 301 sets) keep the modulo. Both give key % sets.
 */

#ifndef SHOTGUN_BTB_ASSOC_TABLE_HH
#define SHOTGUN_BTB_ASSOC_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace shotgun
{

template <typename Value>
class SetAssocTable
{
  public:
    SetAssocTable(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways), setMask_(sets - 1),
          powerOfTwoSets_((sets & (sets - 1)) == 0),
          keys_(sets * ways), lru_(sets * ways), valid_(sets * ways),
          values_(sets * ways)
    {
        fatal_if(sets == 0 || ways == 0,
                 "SetAssocTable needs sets > 0 and ways > 0");
    }

    std::size_t sets() const { return sets_; }
    std::size_t ways() const { return ways_; }
    std::size_t capacity() const { return keys_.size(); }

    /** Heap bytes of the line arrays (checkpoint accounting). */
    std::size_t
    footprintBytes() const
    {
        return capacity() * (sizeof(std::uint64_t) * 2 +
                             sizeof(std::uint8_t) + sizeof(Value));
    }

    /** Probe without updating recency. */
    Value *
    find(std::uint64_t key)
    {
        const std::size_t line = lineOf(key);
        return line == kNoLine ? nullptr : &values_[line];
    }

    const Value *
    find(std::uint64_t key) const
    {
        const std::size_t line = lineOf(key);
        return line == kNoLine ? nullptr : &values_[line];
    }

    /** Probe and mark most-recently-used on hit. */
    Value *
    touch(std::uint64_t key)
    {
        const std::size_t line = lineOf(key);
        if (line == kNoLine)
            return nullptr;
        lru_[line] = ++clock_;
        return &values_[line];
    }

    /**
     * Insert (or overwrite) the value for `key`, evicting the LRU way
     * of the set if needed.
     * @param evicted_key  if non-null, receives the evicted key.
     * @param evicted      if non-null, receives the evicted value.
     * @return true if a valid entry was evicted.
     */
    bool
    insert(std::uint64_t key, const Value &value,
           std::uint64_t *evicted_key = nullptr,
           Value *evicted = nullptr)
    {
        const std::size_t line = lineOf(key);
        if (line != kNoLine) {
            values_[line] = value;
            lru_[line] = ++clock_;
            return false;
        }

        // Victim: the first invalid way, else the least recently used
        // (the first of equals).
        const std::size_t base = setOf(key) * ways_;
        std::size_t victim = base;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (!valid_[i]) {
                victim = i;
                break;
            }
            if (lru_[i] < lru_[victim])
                victim = i;
        }

        const bool evicting = valid_[victim] != 0;
        if (evicting) {
            if (evicted_key)
                *evicted_key = keys_[victim];
            if (evicted)
                *evicted = values_[victim];
        }
        keys_[victim] = key;
        values_[victim] = value;
        valid_[victim] = 1;
        lru_[victim] = ++clock_;
        return evicting;
    }

    /** Remove the entry for `key`. @return true if it existed. */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t line = lineOf(key);
        if (line == kNoLine)
            return false;
        valid_[line] = 0;
        return true;
    }

    /** Count of valid entries (O(capacity); for tests/stats only). */
    std::size_t
    occupancy() const
    {
        std::size_t count = 0;
        for (const std::uint8_t valid : valid_)
            count += valid;
        return count;
    }

    /** Apply fn(key, value) to every valid entry (tests/stats). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (valid_[i])
                fn(keys_[i], values_[i]);
        }
    }

  private:
    static constexpr std::size_t kNoLine = ~std::size_t(0);

    std::size_t
    setOf(std::uint64_t key) const
    {
        return powerOfTwoSets_ ? static_cast<std::size_t>(key & setMask_)
                               : static_cast<std::size_t>(key % sets_);
    }

    /** Line holding `key`, or kNoLine. */
    std::size_t
    lineOf(std::uint64_t key) const
    {
        const std::size_t base = setOf(key) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (keys_[i] == key && valid_[i])
                return i;
        }
        return kNoLine;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::uint64_t setMask_ = 0;
    bool powerOfTwoSets_ = false;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint8_t> valid_;
    std::vector<Value> values_;
    std::uint64_t clock_ = 0;
};

/**
 * Pick an associativity for `entries` such that entries/ways is an
 * integer, preferring `preferred` ways. Used when scaling BTB sizes
 * for the storage-budget sweep (Fig 13).
 */
inline std::size_t
chooseWays(std::size_t entries, std::size_t preferred)
{
    for (std::size_t ways : {preferred, std::size_t(4), std::size_t(8),
                             std::size_t(6), std::size_t(2),
                             std::size_t(16), std::size_t(1)}) {
        if (ways <= entries && entries % ways == 0)
            return ways;
    }
    return 1;
}

/** floor(log2(x)) for x >= 1; 0 for x == 0. */
inline unsigned
floorLog2(std::uint64_t x)
{
    unsigned log = 0;
    while (x > 1) {
        x >>= 1;
        ++log;
    }
    return log;
}

} // namespace shotgun

#endif // SHOTGUN_BTB_ASSOC_TABLE_HH
