#include "prefetch/boomerang.hh"

namespace shotgun
{

BoomerangScheme::BoomerangScheme(SchemeContext ctx,
                                 std::size_t btb_entries,
                                 std::size_t prefetch_buffer_entries)
    : Scheme(ctx), btb_(btb_entries), buffer_(prefetch_buffer_entries)
{
}

void
BoomerangScheme::processBB(const BBRecord &truth, Cycle now,
                           BPUResult &out)
{
    const BTBEntry *entry = btb_.lookup(truth.startAddr);
    if (!entry) {
        // Staged by an earlier predecode? Migrate without stalling.
        BTBEntry staged;
        if (buffer_.extract(truth.startAddr, staged)) {
            btb_.insert(staged);
            entry = btb_.probe(truth.startAddr);
        }
    }

    if (!entry) {
        // Reactive fill: stall the BPU, fetch the block through the
        // hierarchy, predecode it, install the missing entry and
        // stage the others.
        out.btbMiss = true;
        out.resolveStall = true;
        ++resolutions_;
        const Addr block = blockNumber(truth.startAddr);
        const Cycle bytes_ready = ctx_.mem->probeForFill(block, now);
        out.stallUntil = bytes_ready + ctx_.params->predecodeCycles;

        for (const BTBEntry &decoded :
             ctx_.predecoder->decodeBlock(block)) {
            if (decoded.bbStart == truth.startAddr)
                btb_.insert(decoded);
            else
                buffer_.insert(decoded);
        }
    }

    // With the entry resolved (hit, staged, or reactively filled),
    // the branch is known to the BPU: normal direction prediction.
    out.mispredict = predictControl(truth);

    probeBBBlocks(truth, now);
    if (out.mispredict)
        wrongPathProbes(truth, false, now);
}

} // namespace shotgun
