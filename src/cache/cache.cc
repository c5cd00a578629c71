#include "cache/cache.hh"

#include "btb/assoc_table.hh"
#include "common/logging.hh"

namespace shotgun
{

Cache::Cache(const CacheParams &params)
    : params_(params),
      ways_(chooseWays(params.sizeKB * 1024 / kBlockBytes, params.ways))
{
    fatal_if(params.sizeKB == 0, "cache size must be positive");
    const std::size_t sets = params.sizeKB * 1024 / kBlockBytes / ways_;
    fatal_if(sets * ways_ >= kNoLine, "cache '%s' has too many lines",
             params.name.c_str());
    setMask_ = sets - 1;
    powerOfTwoSets_ = (sets & (sets - 1)) == 0;
    sets_.resize(sets);
}

void
Cache::enablePollutionTracking()
{
    pollutionVictims_.assign(kPollutionSlots, ~Addr(0));
}

std::uint32_t
Cache::find(Addr block_number) const
{
    std::uint32_t line = sets_[setIndex(block_number)].head;
    while (line != kNoLine && lines_[line].block != block_number)
        line = lines_[line].next;
    return line;
}

std::uint32_t
Cache::touch(Addr block_number)
{
    Set &set = sets_[setIndex(block_number)];
    std::uint32_t prev = kNoLine;
    std::uint32_t line = set.head;
    while (line != kNoLine && lines_[line].block != block_number) {
        prev = line;
        line = lines_[line].next;
    }
    if (line != kNoLine && prev != kNoLine) {
        lines_[prev].next = lines_[line].next;
        lines_[line].next = set.head;
        set.head = line;
    }
    return line;
}

bool
Cache::access(Addr block_number)
{
    ++accesses_;
    const std::uint32_t found = touch(block_number);
    if (found == kNoLine) {
        if (!pollutionVictims_.empty()) {
            Addr &slot =
                pollutionVictims_[block_number % kPollutionSlots];
            if (slot == block_number) {
                ++polluting_;
                slot = ~Addr(0);
            }
        }
        return false;
    }
    ++hits_;
    Line &line = lines_[found];
    if (line.prefetched) {
        line.prefetched = false;
        ++useful_;
    }
    return true;
}

bool
Cache::contains(Addr block_number) const
{
    return find(block_number) != kNoLine;
}

void
Cache::fill(Addr block_number, bool prefetched)
{
    ++fills_;
    if (prefetched)
        ++prefetchFills_;
    // Re-fill of a resident block: keep it counted once; a prefetch
    // fill of a demand-resident block adds no new provenance.
    if (touch(block_number) != kNoLine)
        return;
    Set &set = sets_[setIndex(block_number)];
    if (set.count < ways_) {
        lines_.push_back(Line{block_number, set.head, prefetched});
        set.head = static_cast<std::uint32_t>(lines_.size() - 1);
        ++set.count;
        return;
    }

    // A full set: its tail is the least recently used line. Refill it
    // in place and make it the head.
    std::uint32_t prev = kNoLine;
    std::uint32_t tail = set.head;
    while (lines_[tail].next != kNoLine) {
        prev = tail;
        tail = lines_[tail].next;
    }
    Line &victim = lines_[tail];
    if (victim.prefetched)
        ++useless_;
    // Pollution tracking: a prefetch fill displacing a demand-resident
    // block records the victim; a demand miss on it later confirms the
    // prefetch was polluting.
    if (prefetched && !victim.prefetched && !pollutionVictims_.empty())
        pollutionVictims_[victim.block % kPollutionSlots] = victim.block;
    victim.block = block_number;
    victim.prefetched = prefetched;
    if (prev != kNoLine) {
        lines_[prev].next = kNoLine;
        victim.next = set.head;
        set.head = tail;
    }
}

void
Cache::resetStats()
{
    accesses_ = 0;
    hits_ = 0;
    fills_ = 0;
    useful_ = 0;
    useless_ = 0;
    prefetchFills_ = 0;
    // The victim table is trajectory state (it evolves with fills and
    // accesses, identically in monolithic and windowed runs), so only
    // the counter resets here.
    polluting_ = 0;
}

} // namespace shotgun
