/**
 * @file
 * The simulated core: a decoupled front end (branch-prediction unit
 * walking the correct path into an FTQ, fetch engine draining it
 * through the L1-I) feeding a retire-width/ROB-occupancy backend
 * model with an L1-D miss component. Redirect penalties model
 * misfetches (decode) and mispredicts (execute) as BPU bubbles.
 *
 * The front-end stall accounting implements the paper's metric
 * (Sec 6.1): cycles on the correct execution path where the backend
 * is starved of instructions, attributed to their cause (L1-I miss
 * wait, BTB-miss resolution stall, misfetch bubble, mispredict
 * bubble). The first three are "front-end stall cycles"; coverage of
 * a prefetcher is measured against the no-prefetch baseline's count.
 */

#ifndef SHOTGUN_CPU_CORE_HH
#define SHOTGUN_CPU_CORE_HH

#include <deque>
#include <memory>

#include "branch/ras.hh"
#include "cache/hierarchy.hh"
#include "cache/predecoder.hh"
#include "cpu/ftq.hh"
#include "cpu/outcome_log.hh"
#include "cpu/params.hh"
#include "obs/uarch.hh"
#include "prefetch/factory.hh"
#include "trace/generator.hh"

namespace shotgun
{

/**
 * Everything of a Core that a clone copies by value: all of its state
 * but the trace source, which a clone rebinds, and the scheme, which a
 * clone rebuilds on the copy's own structures. One struct with a
 * defaulted copy, so the clone constructor copies it in one line and a
 * member added here is cloned without further code.
 */
struct CoreState
{
    /** Starvation-cycle attribution. */
    struct StallBreakdown
    {
        std::uint64_t icache = 0;     ///< Waiting on an L1-I fill.
        std::uint64_t btbResolve = 0; ///< BPU stalled on reactive fill.
        std::uint64_t misfetch = 0;   ///< Decode-redirect bubbles.
        std::uint64_t mispredict = 0; ///< Execute-redirect bubbles.
        std::uint64_t other = 0;

        /** The paper's front-end stall cycles. */
        std::uint64_t
        frontEnd() const
        {
            return icache + btbResolve + misfetch;
        }
    };

    enum class BpuStallKind
    {
        None,
        ICache,
        Resolve,
        Misfetch,
        Mispredict,
    };

    /** Fully fetched basic blocks awaiting retirement. */
    struct BackendItem
    {
        BBRecord record;
        std::uint8_t remaining = 0;
    };

    CoreState(const Program &program, const CoreParams &core_params,
              const HierarchyParams &hierarchy_params,
              std::shared_ptr<OutcomeLog> log);

    const Program &program_;
    CoreParams params_;

    InstrHierarchy mem_;

    /**
     * This core's position in its stream's outcome log: the TAGE
     * mispredicts and L1-D misses (cpu/outcome_log.hh). The RAS stays
     * per core; RDIP reads its top and size.
     */
    OutcomeCursor outcomes_;
    ReturnAddressStack ras_;
    Predecoder predecoder_;

    FTQ ftq_;

    std::deque<BackendItem> backendQ_;
    std::size_t backendInstrs_ = 0;

    Cycle now_ = 0;
    Cycle bpuStallUntil_ = 0;
    BpuStallKind bpuStallKind_ = BpuStallKind::None;
    bool sourceExhausted_ = false;

    /**
     * Redirect modelling: on a mispredict/misfetch the BPU halts at
     * the offending branch (everything younger would be wrong-path).
     * When fetch finishes draining the FTQ up to that branch, the
     * redirect bubble starts: both fetch and the BPU stay idle for
     * the penalty, after which the BPU restarts with an empty FTQ --
     * losing its prefetch lead, exactly as a real flush does.
     */
    bool bpuWaitingRedirect_ = false;
    unsigned pendingRedirectPenalty_ = 0;
    BpuStallKind pendingRedirectKind_ = BpuStallKind::None;

    Cycle fetchStallUntil_ = 0;
    BpuStallKind fetchStallKind_ = BpuStallKind::None;
    Cycle dataStallUntil_ = 0;
    unsigned deliveredThisCycle_ = 0;
    double retireCredit_ = 0.0;

    /**
     * Whether the current ICache fetch stall piggybacked on an
     * in-flight *prefetch* MSHR (the prefetch-in-flight taxonomy
     * cause) rather than a fresh demand miss. Probe bookkeeping
     * only; never read by simulation logic.
     */
    bool fetchStallOnPrefetch_ = false;

    // Measurement state.
    Cycle cyclesSinceReset_ = 0;
    std::uint64_t retiredSinceReset_ = 0;
    StallBreakdown stalls_;
    std::uint64_t btbMisses_ = 0;
    std::uint64_t mispredicts_ = 0;
    std::uint64_t misfetches_ = 0;
    double l1dFillSum_ = 0.0;
    std::uint64_t l1dFillCount_ = 0;

    // Microarchitectural probe state (params_.uarchProbes): the
    // cycle-attribution counters (stalls + activeCycles; lifecycle
    // and site tables are assembled by snapshotStats) and the two
    // deterministic miss-site sketches.
    obs::UarchBreakdown uarch_;
    obs::SpaceSavingSketch btbMissSketch_;
    obs::SpaceSavingSketch l1iMissSketch_;
};

/**
 * Every raw measurement counter a SimResult is derived from. A Core's
 * snapshotStats() holds the counts since its last resetStats(); the
 * difference of two snapshots of one run (deltaBetween,
 * sim/stats_delta.hh) is the delta of the window between them. All
 * fields are exact (integral counters, or double sums of integral
 * samples well below 2^53), so deltas of adjacent windows add back to
 * the monolithic totals bit for bit.
 */
struct StatsDelta
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    CoreState::StallBreakdown stalls{};
    std::uint64_t btbMisses = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t misfetches = 0;
    std::uint64_t l1iDemandMisses = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t usefulPrefetches = 0;
    std::uint64_t lateUsefulPrefetches = 0;
    double l1dFillSum = 0.0;
    std::uint64_t l1dFillCount = 0;

    /**
     * Microarchitectural probe readout; all-zero (enabled false)
     * unless CoreParams::uarchProbes is set. Stall and lifecycle
     * fields are monotonic counters and subtract and merge like the
     * rest; the miss-site tables cover the span since the last
     * clearUarchSites() (see obs::uarchDelta) and merge by summing
     * per-PC counts.
     */
    obs::UarchBreakdown uarch{};
};

class Core : private CoreState
{
  public:
    /**
     * A core reading `log`, which must hold the outcomes of the stream
     * `source` delivers from here on and the data-side draws
     * `core_params` sets (panics when the draws differ; a read panics
     * when the stream does). sim/outcome_store.hh shares one log among
     * every core of a stream.
     */
    Core(const Program &program, TraceSource &source,
         const CoreParams &core_params,
         const HierarchyParams &hierarchy_params,
         const SchemeConfig &scheme_config,
         std::shared_ptr<OutcomeLog> log);

    /** A core on a private log of its own: the same code, unshared. */
    Core(const Program &program, TraceSource &source,
         const CoreParams &core_params,
         const HierarchyParams &hierarchy_params,
         const SchemeConfig &scheme_config);

    /**
     * Deep-copy clone for warmup checkpointing (sim/checkpoint.hh):
     * the CoreState is copied by value -- the outcome cursor with it,
     * so the clone reads on from the same log position -- the scheme
     * is cloned onto the copy's own structures (Scheme::clone), and
     * the stream is rebound to `source`,
     * which the caller must position exactly where `other`'s source
     * stood. `source` may be nullptr for a parked clone that is never
     * stepped -- a stored checkpoint -- since only the BPU touches
     * the source. Cloning is const on `other`: taking a checkpoint
     * cannot perturb the original's trajectory.
     */
    Core(const Core &other, TraceSource *source);

    /**
     * The memory this core pins, for the checkpoint store's budget:
     * the object, every heap array it owns at its real size (the
     * caches' resident lines, RAS, predecode buffer, FTQ, backend
     * queue, miss-site sketches), the scheme's heap
     * (Scheme::footprintBytes) and the outcome log's bytes now. The
     * log is shared by every core of its stream, so charging it to
     * each is an upper bound; leaving it out would let stored cores
     * keep logs alive that the budget never sees.
     */
    std::size_t approxStateBytes() const;

    /**
     * Simulate until `instructions` more have retired. Returns early
     * when a finite trace source runs dry and the pipeline has fully
     * drained (live generation never exhausts); check
     * sourceExhausted() / instructionsRetired() afterwards.
     */
    void run(std::uint64_t instructions);

    /**
     * Simulate until at least `target` instructions have retired
     * since the last resetStats(). A no-op when already past the
     * target. This is the windowed-simulation primitive: stopping at
     * a threshold and resuming later traverses exactly the cycle
     * sequence an uninterrupted run does, so window boundaries are
     * consistent between a monolithic run and per-window sub-runs.
     */
    void runUntilRetired(std::uint64_t target);

    /** True once the trace source returned end-of-stream. */
    bool sourceExhausted() const { return sourceExhausted_; }

    /** Zero all measurement state (call after warm-up). */
    void resetStats();

    // -- Measurement accessors (since the last resetStats) ----------

    Cycle cycles() const { return cyclesSinceReset_; }
    std::uint64_t instructionsRetired() const { return retiredSinceReset_; }

    double
    ipc() const
    {
        return cyclesSinceReset_ == 0
                   ? 0.0
                   : static_cast<double>(retiredSinceReset_) /
                         static_cast<double>(cyclesSinceReset_);
    }

    using CoreState::StallBreakdown;

    const StallBreakdown &stalls() const { return stalls_; }

    /**
     * Every measurement counter since the last resetStats() (cheap;
     * no side effects).
     */
    StatsDelta snapshotStats() const;

    /**
     * Reset the miss-site sketches so the tables cover exactly the
     * measurement window about to run (sketches are per-window state,
     * not snapshot-subtractable). Observer-only: touches no
     * simulation state, so calling it never perturbs the trajectory.
     */
    void clearUarchSites();

    Scheme &scheme() { return *scheme_; }
    const Scheme &scheme() const { return *scheme_; }
    InstrHierarchy &mem() { return mem_; }
    const OutcomeCursor &outcomes() const { return outcomes_; }
    ReturnAddressStack &ras() { return ras_; }
    const CoreParams &params() const { return params_; }
    Cycle now() const { return now_; }

  private:
    void step();
    void bpuStep();
    void fetchStep();
    void backendStep();

    /**
     * Jump over a span of idle cycles -- no unit can act, no fill is
     * due and the scheme sleeps -- leaving every piece of state as
     * step() would have left it after each of them (see "Core loop"
     * in src/README.md). A no-op unless the current cycle is idle.
     */
    void skipIdleCycles();
    void replayRetireCredit(Cycle cycles);

    /** One cycle of retire credit: updates `credit`, returns the budget. */
    unsigned earnRetireBudget(double &credit) const;

    /** Charge `cycles` consecutive cycles with this cycle's cause. */
    void accountStarvation(Cycle cycles);
    void attributeCycle(Cycle cycles);

    /** The scheme's view of this core's shared components. */
    SchemeContext schemeContext();

    TraceSource *source_; ///< Null only for a parked checkpoint clone.
    std::unique_ptr<Scheme> scheme_;
};

} // namespace shotgun

#endif // SHOTGUN_CPU_CORE_HH
