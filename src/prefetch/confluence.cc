#include "prefetch/confluence.hh"

namespace shotgun
{

ConfluenceScheme::ConfluenceScheme(SchemeContext ctx,
                                   const ConfluenceParams &params)
    : Scheme(ctx), params_(params), btb_(params.btbEntries, 8),
      history_(params.historyEntries, ~Addr(0)),
      index_(params.indexEntries / params.indexWays, params.indexWays)
{
}

void
ConfluenceScheme::processBB(const BBRecord &truth, Cycle now,
                            BPUResult &out)
{
    (void)now;
    // The 16K BTB plus stream prefill keeps misses rare.
    conventionalBTBStep(btb_, truth, out);
}

void
ConfluenceScheme::recordBlock(Addr block_number)
{
    if (block_number == lastRecorded_)
        return;
    lastRecorded_ = block_number;
    history_[writePos_ % params_.historyEntries] = block_number;
    index_.insert(block_number, writePos_);
    ++writePos_;
}

void
ConfluenceScheme::onRetire(const BBRecord &record)
{
    for (Addr block = record.firstBlock(); block <= record.lastBlock();
         ++block) {
        recordBlock(block);
    }
}

void
ConfluenceScheme::onDemandMiss(Addr block_number, Cycle now)
{
    // A demand miss means the active stream (if any) is not covering
    // the fetch path: restart replay from this trigger, as PIF-style
    // streamers do on every trigger miss.
    const std::size_t *pos = index_.touch(block_number);
    if (!pos)
        return;
    // History segments live in the LLC (SHIFT virtualization): pay a
    // metadata round trip before replay can start. This is the
    // stream start-up delay of Sec 6.1.
    ctx_.mem->mesh().noteRequest(now);
    metadataReadyAt_ = now + ctx_.mem->mesh().llcLatency(now);
    streamActive_ = true;
    consumePos_ = *pos + 1;
    issuePos_ = *pos + 1;
    mismatches_ = 0;
    ++streams_;
}

void
ConfluenceScheme::onDemandBlock(Addr block_number, Cycle now)
{
    (void)now;
    if (!streamActive_ || now < metadataReadyAt_)
        return;
    // Advance the stream with the observed demand sequence; tolerate
    // small skips (not-taken paths shorter than recorded history).
    for (unsigned skip = 0; skip <= params_.resyncWindow; ++skip) {
        const std::size_t pos = consumePos_ + skip;
        if (pos >= writePos_)
            break;
        if (historyAt(pos) == block_number) {
            consumePos_ = pos + 1;
            mismatches_ = 0;
            return;
        }
    }
    if (block_number == lastRecorded_ ||
        (consumePos_ > 0 && historyAt(consumePos_ - 1) == block_number)) {
        return; // Re-access of the current block; not a divergence.
    }
    if (++mismatches_ > params_.divergenceTolerance) {
        streamActive_ = false;
        ++divergences_;
    }
}

void
ConfluenceScheme::tick(Cycle now)
{
    if (!streamActive_ || now < metadataReadyAt_)
        return;
    unsigned budget = params_.issuePerCycle;
    while (budget > 0 && issuePos_ < writePos_ &&
           issuePos_ < consumePos_ + params_.lookaheadBlocks) {
        const Addr block = historyAt(issuePos_);
        ++issuePos_;
        if (block == ~Addr(0))
            continue;
        ctx_.mem->issuePrefetch(block, now);
        --budget;
    }
}

Cycle
ConfluenceScheme::nextWakeup(Cycle now) const
{
    // Mirrors tick()'s guards. Once the replay has caught up with the
    // lookahead window or the recorded history, only a demand block,
    // a miss or a retirement (none of which happens in an idle cycle)
    // can give tick() work again.
    if (!streamActive_)
        return kNever;
    if (now < metadataReadyAt_)
        return metadataReadyAt_;
    const bool can_issue =
        params_.issuePerCycle > 0 && issuePos_ < writePos_ &&
        issuePos_ < consumePos_ + params_.lookaheadBlocks;
    return can_issue ? now : kNever;
}

void
ConfluenceScheme::onFill(Addr block_number, bool was_prefetch, Cycle now)
{
    (void)now;
    if (!was_prefetch)
        return;
    // Unified metadata: prefetched blocks are predecoded and their
    // branches prefill the BTB (Confluence's "BTB prefetching for
    // free").
    for (const BTBEntry &entry :
         ctx_.predecoder->decodeBlock(block_number)) {
        btb_.insertPrefill(entry);
    }
}

void
ConfluenceScheme::collectUarch(obs::UarchBreakdown &u) const
{
    reportPrefills(btb_.prefillCounts(),
                   u.at(obs::UarchStructure::ConvBTB));
}

std::uint64_t
ConfluenceScheme::storageBits() const
{
    // BTB + per-workload history (virtualized into the LLC, ~204KB
    // per the paper) + index table (LLC tag extension, ~240KB).
    const std::uint64_t history_bits =
        static_cast<std::uint64_t>(params_.historyEntries) * 42;
    const std::uint64_t index_bits =
        static_cast<std::uint64_t>(params_.indexEntries) * (42 + 15);
    return btb_.storageBits() + history_bits + index_bits;
}

} // namespace shotgun
