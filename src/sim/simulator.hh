/**
 * @file
 * Top-level simulation driver: wires a workload preset (program +
 * generator), a core, and a control-flow delivery scheme; runs
 * warm-up then measurement; returns the metrics every experiment in
 * the paper is built from.
 */

#ifndef SHOTGUN_SIM_SIMULATOR_HH
#define SHOTGUN_SIM_SIMULATOR_HH

#include <memory>
#include <string>

#include "cpu/core.hh"
#include "sim/stats_delta.hh"
#include "trace/presets.hh"

namespace shotgun
{

/**
 * One measurement window of a run (windowed simulation, see
 * src/window/). Disabled by default (measureEnd == 0), in which case
 * a run measures the whole [0, measureInstructions) region exactly as
 * it always has.
 *
 * When enabled, the run still starts at the head of its stream and
 * warms up for `warmupInstructions`, then fast-forwards to the
 * `measureStart`-th measured instruction with structures training but
 * the window's counters unaffected (snapshot subtraction), and
 * measures until the `measureEnd`-th: the window covers
 * [measureStart, measureEnd) of the measure region. Boundaries are
 * instruction-count thresholds relative to the post-warm-up reset, so
 * the windows of a contiguous plan partition the monolithic run's
 * cycles exactly (see src/window/README.md for the argument).
 */
struct SimWindow
{
    std::uint64_t measureStart = 0;
    std::uint64_t measureEnd = 0;

    bool enabled() const { return measureEnd != 0; }
};

bool operator==(const SimWindow &a, const SimWindow &b);
inline bool
operator!=(const SimWindow &a, const SimWindow &b)
{
    return !(a == b);
}

struct SimConfig
{
    /**
     * The workload doubles as the trace-source selector: when
     * `workload.tracePath` is empty the control-flow stream is
     * generated live from `workload.program` with `traceSeed`;
     * otherwise the recorded trace file is replayed (and the seed
     * recorded in its header drives the data-side model, so a replay
     * is bitwise-identical to the run it was captured from). Use
     * presetByName("trace:<path>[:name]") to build a trace-backed
     * workload.
     */
    WorkloadPreset workload;
    SchemeConfig scheme{};
    CoreParams core{};

    std::uint64_t warmupInstructions = 2000000;
    std::uint64_t measureInstructions = 5000000;

    /** Generator seed; ignored for trace replay (header seed wins). */
    std::uint64_t traceSeed = 1;

    /**
     * Optional measurement window within the measure region; disabled
     * by default. Part of a configuration's canonical identity: two
     * windows of one run are distinct simulations (distinct service
     * fingerprints/cache entries).
     */
    SimWindow window{};

    /** Build a config for (workload, scheme type) with defaults. */
    static SimConfig make(const WorkloadPreset &workload,
                          SchemeType type);

    /**
     * Instructions of the stream the run consumes: the warm-up and
     * the measure region up to the window's end (the whole region
     * without a window). A replayed trace must hold this many, and
     * both daemons dispatch longest-first by it.
     */
    std::uint64_t streamInstructions() const;
};

/** Everything the paper's tables/figures are computed from. */
struct SimResult
{
    std::string workload;
    std::string scheme;

    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    double ipc = 0.0;

    double btbMPKI = 0.0;
    double l1iMPKI = 0.0;
    double mispredictsPerKI = 0.0;

    Core::StallBreakdown stalls{};
    std::uint64_t frontEndStallCycles = 0;

    double prefetchAccuracy = 0.0;
    double avgL1DFillCycles = 0.0;
    std::uint64_t prefetchesIssued = 0;

    std::uint64_t schemeStorageBits = 0;

    /**
     * Microarchitectural probe payload; all-zero with enabled false
     * unless the run's CoreParams::uarchProbes was set. Part of the
     * bitwise-equality contract like every other field.
     */
    obs::UarchBreakdown uarch{};
};

/**
 * Exact (bitwise) equality -- the determinism contract every layer
 * above the simulator asserts: parallel == serial, replay == live,
 * and a grid sharded across service workers == the in-process run.
 * Doubles are compared with ==, deliberately: results must match to
 * the last bit, not approximately.
 */
bool operator==(const Core::StallBreakdown &a,
                const Core::StallBreakdown &b);
bool operator==(const SimResult &a, const SimResult &b);
inline bool
operator!=(const SimResult &a, const SimResult &b)
{
    return !(a == b);
}

/** Speedup of `result` over `baseline` (same workload). */
double speedup(const SimResult &result, const SimResult &baseline);

/**
 * Front-end stall-cycle coverage over the no-prefetch baseline
 * (Fig 6's metric): the fraction of the baseline's front-end stall
 * cycles the scheme eliminated, normalized per instruction.
 */
double stallCoverage(const SimResult &result, const SimResult &baseline);

/**
 * Shared program cache: building a multi-MB synthetic program takes
 * noticeable time, and every scheme must run the *same* image, so
 * programs are memoized by the canonical encoding of their
 * ProgramParams (sim/canonical.hh). Two presets may share a name yet
 * differ in knobs; they get distinct images. Thread-safe; distinct
 * programs build concurrently. Each build adds to the registry gauges
 * sim.programs.count, .static_bbs and .bytes (Program::footprintBytes).
 */
const Program &programFor(const WorkloadPreset &preset);

/**
 * Run one (workload, scheme) simulation. A trace-backed run throws
 * TraceError (trace/trace_io.hh) when its trace cannot be read, was
 * recorded from other program parameters or is too short for the
 * run; a command-line tool wraps the call in fatalOnTraceError.
 */
SimResult runSimulation(const SimConfig &config);

/**
 * A simulation's raw-counter outcome: what runSimulation() derives
 * its SimResult from, kept raw so windowed sub-runs can be stitched
 * exactly (derived doubles do not merge; counters do).
 */
struct SimulationDelta
{
    std::string workload;
    std::string scheme;
    std::uint64_t schemeStorageBits = 0;
    StatsDelta stats;
};

/**
 * Run one simulation and return the raw counters of its measurement
 * window (the whole measure region when config.window is disabled).
 * runSimulation() is finalizeResult() over this, so for a
 * full-coverage window plan, merging the per-window deltas and
 * finalizing reproduces the monolithic SimResult bit for bit.
 */
SimulationDelta runSimulationDelta(const SimConfig &config);

/**
 * Convenience for tests and examples: run the no-prefetch baseline
 * for a workload with the given run lengths. Not memoized; a grid
 * that needs baselines adds them as ordinary points
 * (runner::ExperimentSet::addBaseline).
 */
SimResult baselineFor(const WorkloadPreset &preset,
                      std::uint64_t warmup, std::uint64_t measure,
                      std::uint64_t trace_seed = 1);

} // namespace shotgun

#endif // SHOTGUN_SIM_SIMULATOR_HH
