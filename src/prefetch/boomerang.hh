/**
 * @file
 * Boomerang (Kumar et al., HPCA'17): FDIP plus a reactive, metadata-
 * free BTB fill. On a BTB miss the BPU *stalls*, fetches the block
 * containing the missing basic block from the memory hierarchy,
 * predecodes it, fills the missing entry, and stages the block's
 * other branches in a 32-entry BTB prefetch buffer.
 *
 * This stall is Boomerang's Achilles heel on big-code workloads
 * (Sec 2.2): a cascade of BTB misses keeps the BPU from running
 * ahead, so L1-I prefetching loses its lead -- exactly the behaviour
 * Shotgun removes.
 */

#ifndef SHOTGUN_PREFETCH_BOOMERANG_HH
#define SHOTGUN_PREFETCH_BOOMERANG_HH

#include "btb/conventional_btb.hh"
#include "btb/prefetch_buffer.hh"
#include "prefetch/scheme.hh"

namespace shotgun
{

class BoomerangScheme : public Scheme
{
  public:
    explicit BoomerangScheme(SchemeContext ctx,
                             std::size_t btb_entries = 2048,
                             std::size_t prefetch_buffer_entries = 32);

    const char *name() const override { return "boomerang"; }

    void processBB(const BBRecord &truth, Cycle now,
                   BPUResult &out) override;

    std::uint64_t
    storageBits() const override
    {
        return btb_.storageBits() + buffer_.storageBits();
    }

    std::size_t footprintBytes() const override
    {
        return sizeof(*this) + btb_.footprintBytes() +
               buffer_.footprintBytes();
    }

    void
    collectUarch(obs::UarchBreakdown &u) const override
    {
        obs::PrefetchLifecycle &buf =
            u.at(obs::UarchStructure::PrefetchBuffer);
        buf.issued = buffer_.inserts();
        buf.timely = buffer_.hits();
        buf.unusedEvicted = buffer_.evictions();
    }

    std::unique_ptr<Scheme> clone(SchemeContext ctx) const override
    {
        auto copy = std::make_unique<BoomerangScheme>(*this);
        copy->ctx_ = ctx;
        return copy;
    }

    ConventionalBTB &btb() { return btb_; }
    BTBPrefetchBuffer &prefetchBuffer() { return buffer_; }

    /** BPU stall events spent resolving BTB misses. */
    std::uint64_t resolutions() const { return resolutions_; }

  private:
    ConventionalBTB btb_;
    BTBPrefetchBuffer buffer_;
    std::uint64_t resolutions_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_PREFETCH_BOOMERANG_HH
