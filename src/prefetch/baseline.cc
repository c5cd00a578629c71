#include "prefetch/baseline.hh"

namespace shotgun
{

BaselineScheme::BaselineScheme(SchemeContext ctx, bool prefetch,
                               std::size_t btb_entries)
    : Scheme(ctx), btb_(btb_entries), prefetch_(prefetch)
{
}

void
BaselineScheme::processBB(const BBRecord &truth, Cycle now,
                          BPUResult &out)
{
    conventionalBTBStep(btb_, truth, out);
    if (prefetch_) {
        probeBBBlocks(truth, now);
        if (out.misfetch)
            wrongPathProbes(truth, true, now);
        else if (out.mispredict)
            wrongPathProbes(truth, false, now);
    }
}

} // namespace shotgun
