#include "cache/mshr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shotgun
{

MSHRFile::MSHRFile(std::size_t entries)
    : capacity_(entries)
{
    fatal_if(entries == 0, "MSHR file needs at least one entry");
    fatal_if(entries > kMaxEntries, "MSHR file holds at most %zu entries",
             kMaxEntries);
}

MSHRFile::Entry *
MSHRFile::allocate(Addr block_number, Cycle ready_at, bool is_prefetch)
{
    if (count_ >= capacity_)
        return nullptr;
    panic_if(find(block_number) != nullptr,
             "MSHR double allocation for block");
    Entry &entry = entries_[count_++];
    entry = Entry{};
    entry.block = block_number;
    entry.readyAt = ready_at;
    entry.isPrefetch = is_prefetch;
    earliest_ = std::min(earliest_, ready_at);
    return &entry;
}

void
MSHRFile::updateEarliest()
{
    earliest_ = kNever;
    for (std::size_t i = 0; i < count_; ++i)
        earliest_ = std::min(earliest_, entries_[i].readyAt);
}

void
MSHRFile::clear()
{
    count_ = 0;
    earliest_ = kNever;
}

} // namespace shotgun
