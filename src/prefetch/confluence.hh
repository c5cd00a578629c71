/**
 * @file
 * Confluence (Kaynak, Grot & Falsafi, MICRO'15): the state-of-the-art
 * temporal-streaming front-end prefetcher, modelled as SHIFT
 * (MICRO'13) unified history plus a 16K-entry BTB -- the same
 * generous upper-bound configuration the paper evaluates (Sec 5.2).
 *
 * Mechanism: the retired L1-I block sequence is recorded into a
 * shared, LLC-virtualized history buffer with an index table keyed by
 * block address. A demand L1-I miss triggers a stream: the index is
 * consulted and the history segment is fetched from the LLC (the
 * metadata round trip whose latency is Confluence's key weakness on
 * Nutch/Apache/Streaming, Sec 6.1); replay then prefetches ahead of
 * the demand stream until the observed access sequence diverges from
 * history. Prefetched blocks are predecoded to prefill the BTB
 * ("BTB prefetching for free").
 */

#ifndef SHOTGUN_PREFETCH_CONFLUENCE_HH
#define SHOTGUN_PREFETCH_CONFLUENCE_HH

#include <vector>

#include "btb/assoc_table.hh"
#include "btb/conventional_btb.hh"
#include "prefetch/scheme.hh"

namespace shotgun
{

struct ConfluenceParams
{
    std::size_t btbEntries = 16384;   ///< Upper-bound BTB (Sec 5.2).

    /**
     * History capacity in cache blocks. SHIFT's 32K-entry history
     * stores compressed spatio-temporal records covering about two
     * blocks each; this block-granular equivalent is sized to match
     * that reach.
     */
    std::size_t historyEntries = 65536;
    std::size_t indexEntries = 8192;  ///< 8K-entry index table.
    std::size_t indexWays = 8;
    unsigned lookaheadBlocks = 16;    ///< Replay depth ahead of fetch.
    unsigned issuePerCycle = 3;       ///< Prefetches issued per cycle.
    unsigned divergenceTolerance = 3; ///< Mismatches before reset.
    unsigned resyncWindow = 6;        ///< Skip-ahead search distance.
};

class ConfluenceScheme : public Scheme
{
  public:
    explicit ConfluenceScheme(SchemeContext ctx,
                              const ConfluenceParams &params = {});

    const char *name() const override { return "confluence"; }

    void processBB(const BBRecord &truth, Cycle now,
                   BPUResult &out) override;
    void onFill(Addr block_number, bool was_prefetch,
                Cycle now) override;
    void onDemandMiss(Addr block_number, Cycle now) override;
    void onDemandBlock(Addr block_number, Cycle now) override;
    void onRetire(const BBRecord &record) override;
    void tick(Cycle now) override;
    Cycle nextWakeup(Cycle now) const override;

    std::uint64_t storageBits() const override;

    std::size_t footprintBytes() const override
    {
        return sizeof(*this) + btb_.footprintBytes() +
               history_.capacity() * sizeof(history_[0]) +
               index_.footprintBytes();
    }

    void collectUarch(obs::UarchBreakdown &u) const override;

    std::unique_ptr<Scheme> clone(SchemeContext ctx) const override
    {
        auto copy = std::make_unique<ConfluenceScheme>(*this);
        copy->ctx_ = ctx;
        return copy;
    }

    ConventionalBTB &btb() { return btb_; }
    std::uint64_t streamsStarted() const { return streams_; }
    std::uint64_t divergences() const { return divergences_; }

  private:
    void recordBlock(Addr block_number);
    Addr historyAt(std::size_t pos) const
    {
        return history_[pos % params_.historyEntries];
    }

    ConfluenceParams params_;
    ConventionalBTB btb_;

    /** Circular history of retired instruction-block numbers. */
    std::vector<Addr> history_;
    std::size_t writePos_ = 0;
    Addr lastRecorded_ = ~Addr(0);

    /** Index: block number -> most recent history position. */
    SetAssocTable<std::size_t> index_;

    /** Active stream state. */
    bool streamActive_ = false;
    Cycle metadataReadyAt_ = 0;
    std::size_t consumePos_ = 0; ///< Next history pos fetch should hit.
    std::size_t issuePos_ = 0;   ///< Next history pos to prefetch.
    unsigned mismatches_ = 0;

    std::uint64_t streams_ = 0;
    std::uint64_t divergences_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_PREFETCH_CONFLUENCE_HH
