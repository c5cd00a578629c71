/**
 * @file
 * Experiment orchestration: a declarative grid of simulations
 * (ExperimentSet) executed concurrently across a worker pool
 * (ExperimentRunner). Results come back index-aligned with the grid,
 * and every simulation is a pure function of its SimConfig, so a run
 * with --jobs N is bitwise-identical to a serial run -- parallelism
 * only changes wall-clock time.
 */

#ifndef SHOTGUN_RUNNER_EXPERIMENT_HH
#define SHOTGUN_RUNNER_EXPERIMENT_HH

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hh"
#include "runner/result_sink.hh"
#include "sim/simulator.hh"

namespace shotgun
{
namespace runner
{

/** One grid point: a labelled simulation configuration. */
struct Experiment
{
    std::string workload; ///< Preset name (grouping key for baselines).
    std::string label;    ///< Scheme/variant, e.g. "shotgun@1K".
    SimConfig config;
};

/**
 * An ordered grid of experiments. add() returns the experiment's
 * index; the runner's result vector uses the same indices.
 */
class ExperimentSet
{
  public:
    /** Append a grid point; returns its index. */
    std::size_t add(const WorkloadPreset &preset, std::string label,
                    SimConfig config);

    /**
     * Append the workload's no-prefetch baseline (label "baseline").
     * Idempotent per workload (lengths are taken from the first
     * call): returns the existing index when already added.
     */
    std::size_t addBaseline(const WorkloadPreset &preset,
                            std::uint64_t warmup, std::uint64_t measure,
                            std::uint64_t trace_seed = 1);

    /** Index of the workload's baseline entry, or npos. */
    std::size_t baselineIndex(const std::string &workload) const;

    /**
     * Flip CoreParams::uarchProbes on every experiment added so far
     * (the `--uarch-report` path). Probe-carrying configs fingerprint
     * and checkpoint separately from probe-free ones, so the switch
     * must happen before submission, uniformly for the whole grid.
     */
    void enableUarchProbes();

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    const std::vector<Experiment> &experiments() const { return all_; }
    std::size_t size() const { return all_.size(); }
    bool empty() const { return all_.empty(); }

  private:
    std::vector<Experiment> all_;
    std::unordered_map<std::string, std::size_t> baselines_;
};

struct RunnerOptions
{
    /** Worker threads; 0 means one per hardware thread. */
    unsigned jobs = 0;

    /** Progress/ETA stream; nullptr runs quietly. */
    std::ostream *progress = nullptr;

    /**
     * Optional per-point observation stream for traced runs (the
     * run() caller installed an obs::TraceContext before calling):
     * fires with each point's phase timing and recorded spans in
     * strict grid order, never concurrently, and before run()
     * returns -- on a pool thread, so it must only touch state the
     * caller reads after run(). Never fires for untraced runs, so
     * installing it costs nothing by default.
     */
    std::function<void(std::size_t index, const obs::PointTiming &,
                       const std::vector<obs::SpanRecord> &)>
        onObservation;
};

/**
 * The GridScheduler predecessor gate of every job that runs real
 * simulations, over the points' warmed-state checkpoint keys
 * (sim/checkpoint.hh); zero-warmup points store nothing and stay
 * ungated. A point whose window starts where another window of its
 * key ends (one that is not its run's last) waits for that window and
 * resumes the core it parked. Every other point of a key waits for
 * the first of them in dispatch `order`, the key's leader, and
 * restores its warmup. A window with a chain predecessor never leads,
 * so the gate is acyclic whatever the order.
 */
std::vector<std::size_t>
checkpointPredecessors(const std::vector<Experiment> &grid,
                       const std::vector<std::size_t> &order);

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {});

    /**
     * Execute every experiment, `jobs` at a time. The returned vector
     * is index-aligned with `set.experiments()` and independent of the
     * job count. The first exception thrown by a simulation is
     * rethrown here once in-flight work finishes.
     *
     * When `sink` is non-null, one ResultRow per experiment is
     * appended in grid order; rows whose workload has a baseline entry
     * in the grid carry speedup/stall-coverage against it.
     */
    std::vector<SimResult> run(const ExperimentSet &set,
                               ResultSink *sink = nullptr) const;

    /**
     * Execute a bare grid (no baseline bookkeeping, no sink): the
     * form a remote shard arrives in. Same ordering and determinism
     * guarantees as the ExperimentSet overload.
     */
    std::vector<SimResult> run(const std::vector<Experiment> &grid) const;

    /** The worker count run() will use. */
    unsigned effectiveJobs(std::size_t grid_size) const;

  private:
    RunnerOptions options_;
};

/**
 * Append one ResultRow per experiment to `sink`, in grid order, with
 * speedup/stall-coverage against the workload's baseline entry when
 * the grid has one. Shared by ExperimentRunner::run() and the
 * service client (shotgun-submit), so a grid executed remotely
 * serializes byte-identically to the same grid run in-process.
 * `timings` (when non-null, index-aligned) attaches each point's
 * phase breakdown to its row (JSON-only); all-zero entries are
 * skipped.
 */
void appendResultRows(const ExperimentSet &set,
                      const std::vector<SimResult> &results,
                      ResultSink &sink,
                      const std::vector<obs::PointTiming> *timings =
                          nullptr);

} // namespace runner
} // namespace shotgun

#endif // SHOTGUN_RUNNER_EXPERIMENT_HH
