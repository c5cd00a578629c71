/**
 * @file
 * The no-prefetch baseline and FDIP (Reinman, Calder & Austin,
 * MICRO'99). Both use a conventional basic-block BTB and speculate
 * straight-line on BTB misses (misfetch redirect at decode when the
 * missed branch was actually taken); FDIP additionally issues L1-I
 * prefetch probes for every block entering the FTQ.
 */

#ifndef SHOTGUN_PREFETCH_BASELINE_HH
#define SHOTGUN_PREFETCH_BASELINE_HH

#include "btb/conventional_btb.hh"
#include "prefetch/scheme.hh"

namespace shotgun
{

class BaselineScheme : public Scheme
{
  public:
    /**
     * @param prefetch false = pure demand baseline; true = FDIP.
     * @param btb_entries conventional BTB capacity.
     */
    BaselineScheme(SchemeContext ctx, bool prefetch,
                   std::size_t btb_entries = 2048);

    const char *name() const override
    {
        return prefetch_ ? "fdip" : "baseline";
    }

    void processBB(const BBRecord &truth, Cycle now,
                   BPUResult &out) override;

    std::uint64_t storageBits() const override
    {
        return btb_.storageBits();
    }

    std::size_t footprintBytes() const override
    {
        return sizeof(*this) + btb_.footprintBytes();
    }

    std::unique_ptr<Scheme> clone(SchemeContext ctx) const override
    {
        auto copy = std::make_unique<BaselineScheme>(*this);
        copy->ctx_ = ctx;
        return copy;
    }

    ConventionalBTB &btb() { return btb_; }

  private:
    ConventionalBTB btb_;
    bool prefetch_;
};

} // namespace shotgun

#endif // SHOTGUN_PREFETCH_BASELINE_HH
