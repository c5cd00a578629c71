/**
 * @file
 * RDIP: return-address-stack directed instruction prefetching (Kolli,
 * Saidi & Wenisch, MICRO'13) -- the closest prior work the paper
 * discusses (Sec 4.3). RDIP captures the *global* program context as
 * a signature over the RAS contents; a miss table maps each context
 * to the L1-I miss footprint observed the last time that context was
 * live, and prefetches it when the context recurs.
 *
 * The paper's criticisms, which this implementation lets you measure
 * (see `bench_figures discussion_rdip`):
 *  - RDIP predicts the future from call/return context alone and
 *    ignores local control flow, limiting accuracy;
 *  - it prefetches only L1-I blocks and does not prefill any BTB, so
 *    BTB-miss-induced misfetches remain;
 *  - it carries ~64KB/core of dedicated metadata, where Shotgun fits
 *    in a conventional BTB's budget.
 */

#ifndef SHOTGUN_PREFETCH_RDIP_HH
#define SHOTGUN_PREFETCH_RDIP_HH

#include <vector>

#include "btb/assoc_table.hh"
#include "btb/conventional_btb.hh"
#include "prefetch/scheme.hh"

namespace shotgun
{

struct RdipParams
{
    std::size_t btbEntries = 2048;  ///< Conventional BTB alongside.
    std::size_t tableEntries = 2048; ///< Miss-table entries.
    std::size_t tableWays = 4;
    unsigned blocksPerEntry = 6;    ///< Miss footprint capacity.
    unsigned signatureDepth = 4;    ///< RAS entries hashed.
    unsigned lookahead = 1;         ///< Train N contexts behind.
};

class RdipScheme : public Scheme
{
  public:
    explicit RdipScheme(SchemeContext ctx, const RdipParams &params = {});

    const char *name() const override { return "rdip"; }

    void processBB(const BBRecord &truth, Cycle now,
                   BPUResult &out) override;
    void onDemandMiss(Addr block_number, Cycle now) override;

    std::uint64_t storageBits() const override;

    std::size_t footprintBytes() const override;

    std::unique_ptr<Scheme> clone(SchemeContext ctx) const override
    {
        auto copy = std::make_unique<RdipScheme>(*this);
        copy->ctx_ = ctx;
        return copy;
    }

  private:
    struct MissSet
    {
        std::vector<Addr> blocks;
    };

    /** Signature over the top of the RAS plus the new target. */
    std::uint64_t signature(Addr transfer_target) const;

    /** Context change: train the old context, prefetch the new. */
    void switchContext(std::uint64_t new_signature, Cycle now);

    RdipParams params_;
    ConventionalBTB btb_;
    SetAssocTable<MissSet> table_;

    std::uint64_t currentSig_ = 0;
    /** Recent signatures, newest first, for lookahead training. */
    std::vector<std::uint64_t> sigHistory_;
    /** Misses observed in the current context, pending attribution. */
    std::vector<Addr> pendingMisses_;
};

} // namespace shotgun

#endif // SHOTGUN_PREFETCH_RDIP_HH
