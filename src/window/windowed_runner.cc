#include "window/windowed_runner.hh"

#include <condition_variable>
#include <iterator>
#include <mutex>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace shotgun
{
namespace window
{

std::vector<runner::Experiment>
expandExperiment(const runner::Experiment &exp, const WindowPlan &plan)
{
    const std::vector<SimConfig> configs =
        expandPlan(exp.config, plan);
    std::vector<runner::Experiment> grid;
    grid.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        runner::Experiment sub;
        sub.workload = exp.workload;
        sub.label = exp.label + "#w" + std::to_string(i) + "/" +
                    std::to_string(configs.size());
        sub.config = configs[i];
        grid.push_back(std::move(sub));
    }
    return grid;
}

SimResult
stitchWindows(const std::vector<SimulationDelta> &windows)
{
    fatal_if(windows.empty(), "stitching zero windows");
    const SimulationDelta &first = windows.front();
    StatsDelta merged;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const SimulationDelta &w = windows[i];
        fatal_if(w.workload != first.workload ||
                     w.scheme != first.scheme ||
                     w.schemeStorageBits != first.schemeStorageBits,
                 "stitching window %zu of a different run (%s/%s vs "
                 "%s/%s)",
                 i, w.workload.c_str(), w.scheme.c_str(),
                 first.workload.c_str(), first.scheme.c_str());
        merge(merged, w.stats);
    }
    return finalizeResult(first.workload, first.scheme,
                          first.schemeStorageBits, merged);
}

std::vector<WindowPlan>
contiguousPlans(const std::vector<runner::Experiment> &grid,
                unsigned num_windows)
{
    std::vector<WindowPlan> plans;
    plans.reserve(grid.size());
    for (const runner::Experiment &exp : grid)
        plans.push_back(contiguousPlan(exp.config, num_windows));
    return plans;
}

std::vector<runner::Experiment>
expandGrid(const std::vector<runner::Experiment> &grid,
           const std::vector<WindowPlan> &plans)
{
    panic_if(plans.size() != grid.size(),
             "%zu window plans for a %zu-experiment grid", plans.size(),
             grid.size());
    std::vector<runner::Experiment> points;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        fatal_if(grid[i].config.window.enabled(),
                 "experiment %s/%s already has a window; window "
                 "sharding splits whole runs",
                 grid[i].workload.c_str(), grid[i].label.c_str());
        for (runner::Experiment &sub : expandExperiment(grid[i], plans[i]))
            points.push_back(std::move(sub));
    }
    return points;
}

std::vector<WindowedOutcome>
stitchGrid(std::vector<SimulationDelta> deltas,
           const std::vector<WindowPlan> &plans)
{
    std::size_t windows = 0;
    for (const WindowPlan &plan : plans)
        windows += plan.size();
    panic_if(windows != deltas.size(),
             "stitching %zu window deltas into plans of %zu windows",
             deltas.size(), windows);
    std::vector<WindowedOutcome> outcomes(plans.size());
    auto next = deltas.begin();
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const auto end = next + static_cast<std::ptrdiff_t>(plans[i].size());
        outcomes[i].windows.assign(std::make_move_iterator(next),
                                   std::make_move_iterator(end));
        outcomes[i].stitched = stitchWindows(outcomes[i].windows);
        next = end;
    }
    return outcomes;
}

std::vector<WindowedOutcome>
runWindowedGrid(const std::vector<runner::Experiment> &grid,
                const std::vector<WindowPlan> &plans,
                runner::GridScheduler &scheduler)
{
    std::vector<runner::Experiment> points = expandGrid(grid, plans);
    const std::size_t count = points.size();

    // Raw deltas land in per-point slots from worker threads; the
    // scheduler's completion accounting plus the hand-off mutex below
    // order those writes before our reads after `done`.
    std::vector<SimulationDelta> deltas(count);
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    runner::GridScheduler::Outcome outcome;

    runner::GridScheduler::JobHooks hooks;
    hooks.simulate = [&deltas](std::size_t index,
                               const runner::Experiment &sub) {
        // The deltas are the job's output; nothing reads the
        // scheduler's per-point result.
        deltas[index] = runSimulationDelta(sub.config);
        return SimResult{};
    };
    hooks.onDone = [&](const runner::GridScheduler::Outcome &o) {
        std::lock_guard<std::mutex> lock(mutex);
        outcome = o;
        done = true;
        cv.notify_one();
    };
    // Contiguous windows share warmup and skip, hence a checkpoint
    // key: each window waits for the one before it and resumes the
    // core that window parked, so a plan simulates its measure region
    // once, while the pool runs the other plans' windows.
    hooks.predecessors = runner::checkpointPredecessors;
    scheduler.submit(std::move(points), 0, std::move(hooks));

    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() { return done; });
    }
    if (outcome.status == runner::GridScheduler::Outcome::Status::Error)
        std::rethrow_exception(outcome.error);
    fatal_if(outcome.status != runner::GridScheduler::Outcome::Status::Ok,
             "windowed run of %zu experiments was cancelled after %zu "
             "of %zu windows",
             grid.size(), outcome.completed, count);
    return stitchGrid(std::move(deltas), plans);
}

WindowedOutcome
runWindowedExperiment(const runner::Experiment &exp,
                      const WindowPlan &plan,
                      runner::GridScheduler &scheduler)
{
    return std::move(runWindowedGrid({exp}, {plan}, scheduler).front());
}

} // namespace window
} // namespace shotgun
