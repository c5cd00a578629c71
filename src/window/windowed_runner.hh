/**
 * @file
 * Windowed execution of one experiment: expand a WindowPlan into
 * per-window sub-points, schedule them on a runner::GridScheduler
 * (the same pool the experiment runner and the simulation service
 * multiplex their jobs over), emit per-window results strictly in
 * window order, and stitch the raw per-window deltas back into one
 * SimResult.
 *
 * For a full-coverage plan the stitched result is numerically
 * identical to running the experiment monolithically -- the windows
 * measure disjoint adjacent slices of the exact cycle sequence the
 * monolithic run traverses (see src/window/README.md), and the raw
 * counters merge exactly. The service client's windowed submit
 * (service/client.hh ServiceClient::submitWindowed) stitches with
 * the same merge, so a window a fleet coordinator requeues after its
 * worker died and re-simulates elsewhere changes nothing in the
 * result.
 */

#ifndef SHOTGUN_WINDOW_WINDOWED_RUNNER_HH
#define SHOTGUN_WINDOW_WINDOWED_RUNNER_HH

#include <functional>
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
 * "<label>#w<i>/<n>". Shared by the in-process runner below and the
 * service client's window sharding, so both expand identically.
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
 * Run `exp` as `plan`'s windows on `scheduler` (worker budget
 * `budget`, 0 = whole pool) and stitch. Full-coverage plans are
 * validated first. `on_window` (optional) observes each window's
 * standalone result strictly in window order. Blocks until every
 * window completed; rethrows the first window's failure.
 */
WindowedOutcome runWindowedExperiment(
    const runner::Experiment &exp, const WindowPlan &plan,
    runner::GridScheduler &scheduler, unsigned budget = 0,
    const std::function<void(std::size_t window,
                             const SimResult &result)> &on_window = {});

/**
 * Convenience overload: a transient scheduler with `jobs` workers
 * (0 = one per hardware thread, clamped to the window count).
 */
WindowedOutcome runWindowedExperiment(const runner::Experiment &exp,
                                      const WindowPlan &plan,
                                      unsigned jobs);

} // namespace window
} // namespace shotgun

#endif // SHOTGUN_WINDOW_WINDOWED_RUNNER_HH
