#include "cache/hierarchy.hh"

namespace shotgun
{

InstrHierarchy::InstrHierarchy(const HierarchyParams &params)
    : params_(params), l1i_(params.l1i), llc_(params.llc),
      mshrs_(params.mshrs), mesh_(params.mesh), memory_(params.memory)
{
}

Cycle
InstrHierarchy::fillLatency(Addr block_number, Cycle now)
{
    mesh_.noteRequest(now);
    if (llc_.access(block_number))
        return mesh_.llcLatency(now);
    // LLC miss: fetch from memory and install in the LLC on the way.
    llc_.fill(block_number, false);
    return mesh_.llcLatency(now) + memory_.access(now);
}

InstrHierarchy::FetchResult
InstrHierarchy::demandFetch(Addr block_number, Cycle now)
{
    FetchResult result;
    if (l1i_.access(block_number)) {
        result.hit = true;
        return result;
    }
    ++demandMisses_;
    if (MSHRFile::Entry *entry = mshrs_.find(block_number)) {
        entry->demandWaiting = true;
        result.readyAt = entry->readyAt;
        return result;
    }
    const Cycle ready = now + fillLatency(block_number, now);
    if (MSHRFile::Entry *entry = mshrs_.allocate(block_number, ready,
                                                 false)) {
        result.readyAt = entry->readyAt;
    } else {
        // MSHR file full: model a retry after the oldest in-flight
        // fill would have landed.
        result.readyAt = now + mesh_.llcLatency(now);
    }
    return result;
}

bool
InstrHierarchy::issuePrefetch(Addr block_number, Cycle now)
{
    if (l1i_.contains(block_number) || mshrs_.find(block_number)) {
        return false;
    }
    if (mshrs_.full())
        return false;
    const Cycle ready = now + fillLatency(block_number, now);
    mshrs_.allocate(block_number, ready, true);
    ++prefetches_;
    return true;
}

Cycle
InstrHierarchy::probeForFill(Addr block_number, Cycle now)
{
    if (l1i_.contains(block_number))
        return now + params_.l1iHitCycles;
    if (MSHRFile::Entry *entry = mshrs_.find(block_number))
        return entry->readyAt;
    if (!mshrs_.full()) {
        const Cycle ready = now + fillLatency(block_number, now);
        mshrs_.allocate(block_number, ready, false);
        return ready;
    }
    return now + fillLatency(block_number, now);
}

void
InstrHierarchy::resetStats()
{
    demandMisses_ = 0;
    prefetches_ = 0;
    lateUseful_ = 0;
    l1i_.resetStats();
    llc_.resetStats();
    memory_.resetStats();
}

} // namespace shotgun
