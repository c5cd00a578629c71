#include "core/shotgun.hh"

namespace shotgun
{

ShotgunScheme::ShotgunScheme(SchemeContext ctx,
                             const ShotgunBTBConfig &config,
                             std::size_t prefetch_buffer_entries)
    : Scheme(ctx), btbs_(config), buffer_(prefetch_buffer_entries),
      recorder_(btbs_)
{
}

void
ShotgunScheme::probeRegionBlock(Addr block_number, Cycle now)
{
    ++regionPf_;
    if (!ctx_.mem->issuePrefetch(block_number, now) &&
        ctx_.mem->l1Contains(block_number)) {
        prefillFromBlock(block_number);
    }
}

void
ShotgunScheme::regionPrefetch(const SpatialFootprint &footprint,
                              std::uint8_t extent, Addr anchor_block,
                              Cycle now)
{
    switch (btbs_.mode()) {
      case FootprintMode::NoBitVector:
        // Ablation: no region prefetching at all; only the FDIP
        // probes issued as blocks enter the FTQ remain.
        return;
      case FootprintMode::BitVector8:
      case FootprintMode::BitVector32: {
        probeRegionBlock(anchor_block, now);
        const FootprintFormat &fmt = btbs_.format();
        footprint.forEachSet(fmt, [&](int offset) {
            probeRegionBlock(
                anchor_block + static_cast<std::int64_t>(offset), now);
        });
        return;
      }
      case FootprintMode::EntireRegion:
        // Prefetch every block from entry to exit point, accessed or
        // not (the over-prefetching arm of Figs 8-11).
        for (std::uint8_t b = 0; b <= extent; ++b)
            probeRegionBlock(anchor_block + b, now);
        return;
      case FootprintMode::FiveBlocks:
        // Metadata-free fixed window (Fig 3 shows 80-90% of accesses
        // land within it, but small regions over-prefetch badly).
        for (unsigned b = 0; b < 5; ++b)
            probeRegionBlock(anchor_block + b, now);
        return;
    }
}

void
ShotgunScheme::processBB(const BBRecord &truth, Cycle now,
                         BPUResult &out)
{
    ShotgunLookup res = btbs_.lookup(truth.startAddr);

    if (!res.hit()) {
        // Staged by predecode? Migrate to the home BTB, no stall.
        BTBEntry staged;
        if (buffer_.extract(truth.startAddr, staged)) {
            btbs_.insertByType(staged);
            res = btbs_.lookup(truth.startAddr);
        }
    }

    if (!res.hit()) {
        // Reactive resolution (Boomerang mechanism): stall, fetch the
        // block, predecode, fill by branch type, stage the rest.
        out.btbMiss = true;
        out.resolveStall = true;
        ++resolutions_;
        const Addr block = blockNumber(truth.startAddr);
        const Cycle bytes_ready = ctx_.mem->probeForFill(block, now);
        out.stallUntil = bytes_ready + ctx_.params->predecodeCycles;
        for (const BTBEntry &decoded :
             ctx_.predecoder->decodeBlock(block)) {
            if (decoded.bbStart == truth.startAddr)
                btbs_.insertByType(decoded);
            else
                buffer_.insert(decoded);
        }
        res = btbs_.lookup(truth.startAddr);
    }

    ReturnAddressStack::Entry popped;
    out.mispredict = predictControl(truth, &popped);

    // Footprint-driven bulk prefetch on global control-flow hits.
    if (res.where == ShotgunHit::UBTBHit && res.uentry) {
        regionPrefetch(res.uentry->callFootprint, res.uentry->callExtent,
                       blockNumber(res.uentry->target), now);
    } else if (res.where == ShotgunHit::RIBHit && popped.valid) {
        // The return region's footprint lives with the call, found
        // via the basic-block address the extended RAS recorded.
        if (const UBTBEntry *call = btbs_.ubtb().probe(popped.callBBAddr)) {
            regionPrefetch(call->returnFootprint, call->returnExtent,
                           blockNumber(popped.returnAddr), now);
        }
    }

    // FDIP probes for the block(s) of this basic block.
    probeBBBlocks(truth, now);
    if (out.mispredict)
        wrongPathProbes(truth, false, now);
}

void
ShotgunScheme::prefillFromBlock(Addr block_number)
{
    // Local control flow (conditionals and straight-line splits)
    // prefills the C-BTB; global control flow is staged in the
    // prefetch buffer until the BPU claims it.
    for (const BTBEntry &decoded :
         ctx_.predecoder->decodeBlock(block_number)) {
        if (decoded.type == BranchType::Conditional ||
            decoded.type == BranchType::None) {
            btbs_.cbtb().insertPrefill(CBTBEntry(decoded));
        } else {
            buffer_.insert(decoded);
        }
    }
}

void
ShotgunScheme::onFill(Addr block_number, bool was_prefetch, Cycle now)
{
    (void)now;
    (void)was_prefetch;
    // Proactive fill: predecode every arriving block (the predecoder
    // sits on the L1-I fill path, so demand fills pass through it as
    // well).
    prefillFromBlock(block_number);
}

void
ShotgunScheme::onRetire(const BBRecord &record)
{
    recorder_.retire(record);
}

void
ShotgunScheme::collectUarch(obs::UarchBreakdown &u) const
{
    obs::PrefetchLifecycle &buf =
        u.at(obs::UarchStructure::PrefetchBuffer);
    buf.issued = buffer_.inserts();
    buf.timely = buffer_.hits();
    buf.unusedEvicted = buffer_.evictions();

    reportPrefills(btbs_.cbtb().prefillCounts(),
                   u.at(obs::UarchStructure::CBTB));
}

} // namespace shotgun
