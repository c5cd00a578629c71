#include "cpu/outcome_log.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shotgun
{

OutcomeLog::OutcomeLog(const CoreParams &params)
    : dataSeed_(params.dataSeed),
      loadThreshold_(Rng::threshold(params.loadFrac)),
      l1dMissThreshold_(Rng::threshold(params.l1dMissRate)),
      llcDataMissThreshold_(Rng::threshold(params.llcDataMissFrac)),
      dataRng_(params.dataSeed)
{
}

bool
OutcomeLog::drawsMatch(const CoreParams &params) const
{
    return params.dataSeed == dataSeed_ &&
           Rng::threshold(params.loadFrac) == loadThreshold_ &&
           Rng::threshold(params.l1dMissRate) == l1dMissThreshold_ &&
           Rng::threshold(params.llcDataMissFrac) ==
               llcDataMissThreshold_;
}

std::size_t
OutcomeLog::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sizeof(*this) + tage_.footprintBytes() + branches_.bytes() +
           misses_.bytes();
}

void
OutcomeLog::drawChunk()
{
    // The backend's per-instruction draws, in retire order: does it
    // load, does the load miss the L1-D, does the miss go to memory.
    for (std::uint64_t i = 0; i < kDrawInstructions; ++i, ++drawn_) {
        if (!dataRng_.draw(loadThreshold_))
            continue;
        if (!dataRng_.draw(l1dMissThreshold_))
            continue;
        misses_.push(drawn_ << 1 |
                     static_cast<std::uint64_t>(
                         dataRng_.draw(llcDataMissThreshold_)));
    }
}

OutcomeCursor::OutcomeCursor(std::shared_ptr<OutcomeLog> log)
    : log_(std::move(log))
{
}

bool
OutcomeCursor::fetchBranch(Addr pc, bool taken, std::uint16_t fold)
{
    {
        std::lock_guard<std::mutex> lock(log_->mutex_);
        OutcomeLog::Chunks<std::uint16_t> &branches = log_->branches_;
        if (branches.size == branch_) {
            // The first core to reach this conditional produces it.
            const bool predicted = log_->tage_.predict(pc);
            log_->tage_.update(pc, taken);
            const bool mispredicted = predicted != taken;
            branches.push(static_cast<std::uint16_t>(
                fold << 1 | static_cast<unsigned>(mispredicted)));
            ++branch_;
            branchEnd_ = branch_;
            ++produced_;
            return mispredicted;
        }
        branchChunk_ = branches.chunkOf(branch_);
        branchEnd_ = std::min(
            branches.size,
            (branch_ / OutcomeLog::kChunkEntries + 1) *
                OutcomeLog::kChunkEntries);
    }
    return readBranch(fold);
}

void
OutcomeCursor::mismatch(std::uint16_t fold, std::uint16_t entry) const
{
    panic("outcome log: conditional %llu is branch fold %#x in the log "
          "but %#x in this core's stream; the log was keyed to a "
          "different stream",
          static_cast<unsigned long long>(branch_), entry >> 1, fold);
}

void
OutcomeCursor::nextEvent()
{
    if (eventIsMiss_)
        ++miss_;
    if (miss_ == missEnd_) {
        std::lock_guard<std::mutex> lock(log_->mutex_);
        // Make progress: a published miss at miss_, or draws past the
        // current event (a consumed miss, or the old end of the draws).
        while (log_->misses_.size == miss_ && log_->drawn_ <= event_)
            log_->drawChunk();
        if (log_->misses_.size == miss_) {
            event_ = log_->drawn_;
            eventIsMiss_ = false;
            return;
        }
        missChunk_ = log_->misses_.chunkOf(miss_);
        missEnd_ = std::min(log_->misses_.size,
                            (miss_ / OutcomeLog::kChunkEntries + 1) *
                                OutcomeLog::kChunkEntries);
    }
    const std::uint64_t miss =
        missChunk_[miss_ % OutcomeLog::kChunkEntries];
    event_ = miss >> 1;
    eventIsMiss_ = true;
    eventToMemory_ = (miss & 1) != 0;
}

} // namespace shotgun
