/**
 * @file
 * Windowed execution of one experiment: expand its WindowPlan into
 * per-window sub-points, run them as one job on a
 * runner::GridScheduler (the pool the experiment runner and the
 * simulation server multiplex their jobs over), and stitch the raw
 * per-window deltas back into one SimResult.
 *
 * For a full-coverage plan the stitched result is numerically
 * identical to running the experiment monolithically -- the windows
 * measure disjoint adjacent slices of the exact cycle sequence the
 * monolithic run traverses (see src/window/README.md), and the raw
 * counters merge exactly.
 */

#ifndef SHOTGUN_WINDOW_WINDOWED_RUNNER_HH
#define SHOTGUN_WINDOW_WINDOWED_RUNNER_HH

#include <vector>

#include "runner/grid_scheduler.hh"
#include "window/window_plan.hh"

namespace shotgun
{
namespace window
{

/** A windowed run's outcome: the stitched result plus the pieces. */
struct WindowedOutcome
{
    SimResult stitched;

    /** Per-window raw deltas, in window order. */
    std::vector<SimulationDelta> windows;
};

/**
 * The window sub-points of `exp` under `plan`, as ordinary grid
 * points: per-window configs from expandPlan() and labels
 * "<label>#w<i>/<n>".
 */
std::vector<runner::Experiment>
expandExperiment(const runner::Experiment &exp, const WindowPlan &plan);

/**
 * Stitch per-window deltas (in window order) into the run's result:
 * merge the raw counters, then derive the metrics exactly as a
 * monolithic runSimulation() would. fatal() on an empty vector or on
 * windows disagreeing about workload/scheme/storage (pieces of
 * different runs).
 */
SimResult stitchWindows(const std::vector<SimulationDelta> &windows);

/**
 * Run `exp` as `plan`'s windows, one job on `scheduler`, and stitch
 * them. Each window is gated on the one before it
 * (runner::checkpointPredecessors) and resumes the core that window
 * parked. The plan is validated for full coverage first, and an
 * experiment that already has a window is fatal(): windowing splits
 * whole runs. Blocks until every window completed; rethrows a failed
 * window's exception and fatal()s when the job is cancelled.
 * Thread-safe: concurrent calls on one scheduler run as separate
 * jobs.
 */
WindowedOutcome runWindowedExperiment(const runner::Experiment &exp,
                                      const WindowPlan &plan,
                                      runner::GridScheduler &scheduler);

} // namespace window
} // namespace shotgun

#endif // SHOTGUN_WINDOW_WINDOWED_RUNNER_HH
