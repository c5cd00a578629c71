/**
 * @file
 * Shotgun (Sec 4): the unified BTB-directed L1-I + BTB prefetcher.
 *
 * The BPU queries U-BTB, C-BTB and RIB in parallel. On a U-BTB hit
 * the call-target region's spatial footprint drives bulk L1-I
 * prefetch probes; on a RIB hit the extended RAS supplies the
 * matching call's U-BTB entry, whose Return Footprint describes the
 * fall-through region. Prefetched blocks are predecoded on arrival to
 * prefill the C-BTB (proactive fill, from Confluence); any residual
 * miss in all three BTBs is resolved with Boomerang's reactive fill.
 * The retire stream trains the U-BTB/RIB and records footprints.
 */

#ifndef SHOTGUN_CORE_SHOTGUN_HH
#define SHOTGUN_CORE_SHOTGUN_HH

#include "btb/prefetch_buffer.hh"
#include "core/footprint_recorder.hh"
#include "core/shotgun_btb.hh"
#include "prefetch/scheme.hh"

namespace shotgun
{

class ShotgunScheme : public Scheme
{
  public:
    ShotgunScheme(SchemeContext ctx,
                  const ShotgunBTBConfig &config = ShotgunBTBConfig{},
                  std::size_t prefetch_buffer_entries = 32);

    /**
     * Copy for clone(): member-wise, except the recorder is rebound
     * to the copy's own BTBs (its reference would otherwise keep
     * writing footprints into the original's U-BTB).
     */
    ShotgunScheme(const ShotgunScheme &other)
        : Scheme(other), btbs_(other.btbs_), buffer_(other.buffer_),
          recorder_(other.recorder_, btbs_),
          resolutions_(other.resolutions_), regionPf_(other.regionPf_)
    {
    }

    const char *name() const override { return "shotgun"; }

    void processBB(const BBRecord &truth, Cycle now,
                   BPUResult &out) override;
    void onFill(Addr block_number, bool was_prefetch,
                Cycle now) override;
    void onRetire(const BBRecord &record) override;

    std::uint64_t
    storageBits() const override
    {
        return btbs_.storageBits() + buffer_.storageBits();
    }

    std::size_t footprintBytes() const override
    {
        return sizeof(*this) + btbs_.footprintBytes() +
               buffer_.footprintBytes() + recorder_.footprintBytes();
    }

    void collectUarch(obs::UarchBreakdown &u) const override;

    std::unique_ptr<Scheme> clone(SchemeContext ctx) const override
    {
        auto copy = std::make_unique<ShotgunScheme>(*this);
        copy->ctx_ = ctx;
        return copy;
    }

    ShotgunBTB &btbs() { return btbs_; }
    const ShotgunBTB &btbs() const { return btbs_; }
    FootprintRecorder &recorder() { return recorder_; }
    BTBPrefetchBuffer &prefetchBuffer() { return buffer_; }

    std::uint64_t resolutions() const { return resolutions_; }
    std::uint64_t regionPrefetches() const { return regionPf_; }

  private:
    /**
     * Issue the bulk region prefetch for a region entered at
     * `anchor_block`, according to the configured mechanism
     * (bit-vector / entire-region / 5-blocks ablations of Sec 6.3).
     */
    void regionPrefetch(const SpatialFootprint &footprint,
                        std::uint8_t extent, Addr anchor_block,
                        Cycle now);

    /**
     * Probe one region block: prefetch it if absent; if it is
     * already resident in the L1-I, run it through the predecoder
     * anyway so the C-BTB is primed for the region (the predecoders
     * sit on the L1-I side and see probe hits as well as fills).
     */
    void probeRegionBlock(Addr block_number, Cycle now);

    /** Predecode a block's branches into C-BTB / prefetch buffer. */
    void prefillFromBlock(Addr block_number);

    ShotgunBTB btbs_;
    BTBPrefetchBuffer buffer_;
    FootprintRecorder recorder_;

    std::uint64_t resolutions_ = 0;
    std::uint64_t regionPf_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_CORE_SHOTGUN_HH
