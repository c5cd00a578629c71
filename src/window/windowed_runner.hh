/**
 * @file
 * Windowed execution of a grid: expand each experiment's WindowPlan
 * into per-window sub-points, run every experiment's windows as one
 * job on a runner::GridScheduler (the same pool the experiment runner
 * and the simulation service multiplex their jobs over), and stitch
 * each experiment's raw per-window deltas back into one SimResult.
 *
 * For a full-coverage plan the stitched result is numerically
 * identical to running the experiment monolithically -- the windows
 * measure disjoint adjacent slices of the exact cycle sequence the
 * monolithic run traverses (see src/window/README.md), and the raw
 * counters merge exactly. The service client's windowed submit
 * (service/client.hh ServiceClient::submitWindowed) expands and
 * stitches with the same two steps, so a window a fleet coordinator
 * requeues after its worker died and re-simulates elsewhere changes
 * nothing in the result.
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

/** Every experiment's contiguousPlan(config, num_windows). */
std::vector<WindowPlan>
contiguousPlans(const std::vector<runner::Experiment> &grid,
                unsigned num_windows);

/**
 * The expand step: every experiment's window sub-points under its
 * plan (`plans` is index-aligned with `grid`), experiment after
 * experiment, each in window order. fatal() on an experiment that
 * already has a window: windowing splits whole runs.
 */
std::vector<runner::Experiment>
expandGrid(const std::vector<runner::Experiment> &grid,
           const std::vector<WindowPlan> &plans);

/**
 * The stitch step: cut an expanded grid's per-window deltas, in its
 * order, back into each experiment's windows and stitch them, one
 * outcome per experiment of `plans`.
 */
std::vector<WindowedOutcome>
stitchGrid(std::vector<SimulationDelta> deltas,
           const std::vector<WindowPlan> &plans);

/**
 * Run every experiment of `grid` as its plan's windows, all of them
 * one job on `scheduler`, and stitch each experiment. Windows are
 * gated on their checkpoint keys (runner::checkpointPredecessors):
 * each window waits for the one before it and resumes the core that
 * window parked. Full-coverage plans are validated first. Blocks
 * until every window completed; rethrows the first window's failure.
 */
std::vector<WindowedOutcome>
runWindowedGrid(const std::vector<runner::Experiment> &grid,
                const std::vector<WindowPlan> &plans,
                runner::GridScheduler &scheduler);

/** runWindowedGrid() of the one experiment `exp`. */
WindowedOutcome runWindowedExperiment(const runner::Experiment &exp,
                                      const WindowPlan &plan,
                                      runner::GridScheduler &scheduler);

} // namespace window
} // namespace shotgun

#endif // SHOTGUN_WINDOW_WINDOWED_RUNNER_HH
