#include "window/windowed_runner.hh"

#include <condition_variable>
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

WindowedOutcome
runWindowedExperiment(const runner::Experiment &exp,
                      const WindowPlan &plan,
                      runner::GridScheduler &scheduler)
{
    fatal_if(exp.config.window.enabled(),
             "experiment %s/%s already has a window; windowing splits "
             "whole runs",
             exp.workload.c_str(), exp.label.c_str());
    std::vector<runner::Experiment> points = expandExperiment(exp, plan);
    const std::size_t count = points.size();

    // Raw deltas land in per-window slots from worker threads; the
    // scheduler's completion accounting plus the hand-off mutex below
    // order those writes before our reads after `done`.
    WindowedOutcome out;
    out.windows.resize(count);
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    runner::GridScheduler::Outcome outcome;

    runner::GridScheduler::JobHooks hooks;
    hooks.simulate = [&out](std::size_t index,
                            const runner::Experiment &sub) {
        // The deltas are the job's output; nothing reads the
        // scheduler's per-point result.
        out.windows[index] = runSimulationDelta(sub.config);
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
    // core that window parked, so the plan simulates its measure
    // region once, while the pool runs other jobs' windows.
    hooks.predecessors = runner::checkpointPredecessors;
    scheduler.submit(std::move(points), 0, std::move(hooks));

    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() { return done; });
    }
    if (outcome.status == runner::GridScheduler::Outcome::Status::Error)
        std::rethrow_exception(outcome.error);
    fatal_if(outcome.status != runner::GridScheduler::Outcome::Status::Ok,
             "windowed run of %s/%s was cancelled after %zu of %zu "
             "windows",
             exp.workload.c_str(), exp.label.c_str(), outcome.completed,
             count);
    out.stitched = stitchWindows(out.windows);
    return out;
}

} // namespace window
} // namespace shotgun
