/**
 * @file
 * Ideal front end (the "Ideal" bars of Fig 1): the L1-I never misses
 * and the BTB is perfect, bounding what any front-end prefetcher can
 * deliver. Branch direction prediction stays realistic (TAGE), since
 * mispredicts are not front-end supply misses.
 */

#ifndef SHOTGUN_PREFETCH_IDEAL_HH
#define SHOTGUN_PREFETCH_IDEAL_HH

#include "prefetch/scheme.hh"

namespace shotgun
{

class IdealScheme : public Scheme
{
  public:
    explicit IdealScheme(SchemeContext ctx) : Scheme(ctx) {}

    const char *name() const override { return "ideal"; }

    void
    processBB(const BBRecord &truth, Cycle now, BPUResult &out) override
    {
        (void)now;
        out.mispredict = predictControl(truth);
    }

    bool idealICache() const override { return true; }

    std::uint64_t storageBits() const override { return 0; }

    std::size_t footprintBytes() const override { return sizeof(*this); }

    std::unique_ptr<Scheme> clone(SchemeContext ctx) const override
    {
        return std::make_unique<IdealScheme>(ctx);
    }
};

} // namespace shotgun

#endif // SHOTGUN_PREFETCH_IDEAL_HH
