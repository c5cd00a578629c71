/**
 * @file
 * Control-flow-delivery scheme interface. A scheme encapsulates what
 * distinguishes the paper's evaluated mechanisms: the BTB organization
 * and its miss handling, the L1-I prefetch policy, fill-time
 * predecode hooks, and retire-time training. The core's cycle loop,
 * fetch engine, TAGE and RAS are shared across schemes; TAGE's
 * outcomes come from the stream's outcome log (cpu/outcome_log.hh).
 */

#ifndef SHOTGUN_PREFETCH_SCHEME_HH
#define SHOTGUN_PREFETCH_SCHEME_HH

#include <cstdint>
#include <memory>
#include <string>

#include "branch/ras.hh"
#include "btb/conventional_btb.hh"
#include "cache/hierarchy.hh"
#include "cache/predecoder.hh"
#include "cpu/outcome_log.hh"
#include "cpu/params.hh"
#include "obs/uarch.hh"
#include "trace/instruction.hh"

namespace shotgun
{

/** Shared front-end components a scheme operates on. */
struct SchemeContext
{
    OutcomeCursor *outcomes = nullptr; ///< TAGE mispredicts, per stream.
    ReturnAddressStack *ras = nullptr;
    InstrHierarchy *mem = nullptr;
    Predecoder *predecoder = nullptr;
    const CoreParams *params = nullptr;
};

/** What the BPU must do after a scheme processed one basic block. */
struct BPUResult
{
    /** The (relevant) BTB lookup missed. */
    bool btbMiss = false;

    /** BPU must stall until `stallUntil` (reactive miss resolution). */
    bool resolveStall = false;
    Cycle stallUntil = 0;

    /**
     * Straight-line speculation past a taken branch; costs the
     * decode-redirect penalty.
     */
    bool misfetch = false;

    /** Direction or return-target mispredict; execute-redirect. */
    bool mispredict = false;
};

class Scheme
{
  public:
    explicit Scheme(SchemeContext ctx) : ctx_(ctx) {}
    virtual ~Scheme() = default;

    virtual const char *name() const = 0;

    /**
     * The BPU walks the next correct-path basic block at cycle `now`
     * (this is also FTQ-insertion time, hence the natural prefetch
     * trigger for FDIP-style schemes).
     */
    virtual void processBB(const BBRecord &truth, Cycle now,
                           BPUResult &out) = 0;

    /** A block arrived in the L1-I (prefetch or demand fill). */
    virtual void onFill(Addr block_number, bool was_prefetch, Cycle now)
    {
        (void)block_number;
        (void)was_prefetch;
        (void)now;
    }

    /** A demand fetch missed the L1-I (temporal-stream trigger). */
    virtual void onDemandMiss(Addr block_number, Cycle now)
    {
        (void)block_number;
        (void)now;
    }

    /** Every demand-fetched block, hit or miss (stream tracking). */
    virtual void onDemandBlock(Addr block_number, Cycle now)
    {
        (void)block_number;
        (void)now;
    }

    /** A basic block retired. */
    virtual void onRetire(const BBRecord &record) { (void)record; }

    /** Once-per-cycle hook (stream engines). */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * The first cycle >= now at which tick() could change state, given
     * that no other hook runs before then; kNever if tick() is a no-op
     * until another hook fires. The core skips idle cycles up to this
     * bound, so a scheme overriding tick() must override this too.
     */
    virtual Cycle
    nextWakeup(Cycle now) const
    {
        (void)now;
        return kNever;
    }

    /** Ideal front end: L1-I accesses never miss. */
    virtual bool idealICache() const { return false; }

    /** Control-flow metadata storage (BTBs + history), in bits. */
    virtual std::uint64_t storageBits() const = 0;

    /**
     * Host memory the scheme occupies: the object and every heap
     * structure it owns, summed from their footprintBytes(). This is
     * what a checkpoint clone allocates, which storageBits() -- the
     * modelled SRAM -- is not (sim/checkpoint.hh charges it).
     */
    virtual std::size_t footprintBytes() const = 0;

    /**
     * Deposit the scheme's prefetch-lifecycle counters into the
     * per-structure slots of `u` (uarch probes; see obs/uarch.hh).
     * Read-only with respect to scheme state; schemes without
     * prefilled structures leave their slots zero.
     */
    virtual void collectUarch(obs::UarchBreakdown &u) const { (void)u; }

    /**
     * Deep-copy every piece of scheme state, rebound onto `ctx` (the
     * cloning core's components). The copy and the original diverge
     * freely afterwards; neither observes the other. This is what
     * lets a warmed Core be checkpointed by value (sim/checkpoint.hh).
     */
    virtual std::unique_ptr<Scheme> clone(SchemeContext ctx) const = 0;

  protected:
    /**
     * Shared direction/target prediction for a *known* branch (after
     * a BTB hit or a resolved miss): reads TAGE's outcome for
     * conditionals from the outcome log, maintains the RAS for
     * calls/returns. Every scheme calls it exactly once per basic
     * block, in stream order, which is what lets one log serve them
     * all.
     *
     * @param popped receives the RAS entry consumed by a return.
     * @return true when the prediction redirects wrongly (mispredict).
     */
    bool predictControl(const BBRecord &truth,
                        ReturnAddressStack::Entry *popped = nullptr);

    /**
     * The BPU step of a conventional BTB (baseline, FDIP, Confluence,
     * RDIP). A hit predicts the known branch. A miss speculates
     * straight-line: the branch is discovered when the block reaches
     * decode, the direction predictor decides the redirect there, and
     * a disagreement with the actual outcome surfaces at execute; the
     * decoded block then fills the BTB.
     */
    void
    conventionalBTBStep(ConventionalBTB &btb, const BBRecord &truth,
                        BPUResult &out)
    {
        if (btb.lookup(truth.startAddr)) {
            out.mispredict = predictControl(truth);
            return;
        }
        out.btbMiss = true;
        if (predictControl(truth))
            out.mispredict = true;
        else if (isBranch(truth.type) && truth.taken)
            out.misfetch = true;
        BTBEntry fill;
        if (ctx_.predecoder->decodeBB(truth.startAddr, fill))
            btb.insert(fill);
    }

    /** Deposit a prefilled BTB's lifecycle counts into its slot. */
    static void
    reportPrefills(const PrefillCounts &counts,
                   obs::PrefetchLifecycle &slot)
    {
        slot.issued = counts.prefills;
        slot.timely = counts.uses;
        slot.unusedEvicted = counts.evictions;
        slot.polluting = counts.pollution;
    }

    /** FDIP probe: prefetch every block the basic block spans. */
    void probeBBBlocks(const BBRecord &record, Cycle now);

    /**
     * Wrong-path prefetch damage: until a redirect resolves, a real
     * BTB-directed prefetcher keeps fetching down the wrong path.
     * The simulator itself only walks the correct path, so schemes
     * call this to issue the wasted sequential probes (traffic +
     * pollution + accuracy loss) the wrong path would have caused.
     *
     * @param truth          the redirecting branch.
     * @param after_misfetch true when the wrong path is straight-line
     *                       speculation past a missed taken branch;
     *                       false for a direction mispredict (the
     *                       wrong path is the other arm).
     */
    void wrongPathProbes(const BBRecord &truth, bool after_misfetch,
                         Cycle now, unsigned blocks = 4);

    SchemeContext ctx_;
};

} // namespace shotgun

#endif // SHOTGUN_PREFETCH_SCHEME_HH
