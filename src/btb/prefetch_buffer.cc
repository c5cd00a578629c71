#include "btb/prefetch_buffer.hh"

#include "common/logging.hh"

namespace shotgun
{

BTBPrefetchBuffer::BTBPrefetchBuffer(std::size_t entries)
    : entries_(entries)
{
    fatal_if(entries == 0, "BTB prefetch buffer needs entries");
}

void
BTBPrefetchBuffer::insert(const BTBEntry &entry)
{
    ++inserts_;
    Slot *victim = &entries_.front();
    for (auto &slot : entries_) {
        if (slot.valid && slot.entry.bbStart == entry.bbStart) {
            slot.entry = entry;
            slot.lru = ++clock_;
            return;
        }
        if (!slot.valid) {
            victim = &slot;
            break;
        }
        if (slot.lru < victim->lru)
            victim = &slot;
    }
    if (victim->valid)
        ++evictions_;
    victim->entry = entry;
    victim->valid = true;
    victim->lru = ++clock_;
}

bool
BTBPrefetchBuffer::extract(Addr bb_start, BTBEntry &out)
{
    for (auto &slot : entries_) {
        if (slot.valid && slot.entry.bbStart == bb_start) {
            out = slot.entry;
            slot.valid = false;
            ++hits_;
            return true;
        }
    }
    return false;
}

bool
BTBPrefetchBuffer::contains(Addr bb_start) const
{
    for (const auto &slot : entries_) {
        if (slot.valid && slot.entry.bbStart == bb_start)
            return true;
    }
    return false;
}

std::size_t
BTBPrefetchBuffer::occupancy() const
{
    std::size_t count = 0;
    for (const auto &slot : entries_)
        count += slot.valid;
    return count;
}

} // namespace shotgun
