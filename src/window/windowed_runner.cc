#include "window/windowed_runner.hh"

#include <condition_variable>
#include <mutex>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "runner/thread_pool.hh"

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
runWindowedExperiment(
    const runner::Experiment &exp, const WindowPlan &plan,
    runner::GridScheduler &scheduler, unsigned budget,
    const std::function<void(std::size_t window,
                             const SimResult &result)> &on_window)
{
    std::vector<runner::Experiment> grid =
        expandExperiment(exp, plan);
    const std::size_t count = grid.size();

    // Raw deltas land in per-window slots from worker threads; the
    // scheduler's completion accounting plus the hand-off mutex below
    // order those writes before our reads after `done`.
    WindowedOutcome outcome;
    outcome.windows.resize(count);

    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    runner::GridScheduler::Outcome sched_outcome;

    runner::GridScheduler::JobHooks hooks;
    hooks.simulate = [&outcome](std::size_t index,
                                const runner::Experiment &sub) {
        SimulationDelta delta = runSimulationDelta(sub.config);
        SimResult result =
            finalizeResult(delta.workload, delta.scheme,
                           delta.schemeStorageBits, delta.stats);
        outcome.windows[index] = std::move(delta);
        return result;
    };
    if (on_window) {
        // GridScheduler emits results strictly in grid order ==
        // window order, never two emissions of one job concurrently.
        hooks.onResult = [&on_window](std::size_t index,
                                      const runner::Experiment &,
                                      const SimResult &result) {
            on_window(index, result);
        };
    }
    hooks.onDone = [&](const runner::GridScheduler::Outcome &o) {
        std::lock_guard<std::mutex> lock(mutex);
        sched_outcome = o;
        done = true;
        cv.notify_one();
    };
    // Contiguous windows share warmup and skip, hence a checkpoint
    // key: each window waits for the one before it and resumes the
    // core that window parked, so the plan simulates the measure
    // region once.
    hooks.predecessors = runner::checkpointPredecessors;
    scheduler.submit(std::move(grid), budget, std::move(hooks));

    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() { return done; });
    }
    if (sched_outcome.status ==
        runner::GridScheduler::Outcome::Status::Error)
        std::rethrow_exception(sched_outcome.error);
    fatal_if(sched_outcome.status !=
                 runner::GridScheduler::Outcome::Status::Ok,
             "windowed run of %s/%s was cancelled after %zu of %zu "
             "windows",
             exp.workload.c_str(), exp.label.c_str(),
             sched_outcome.completed, count);

    outcome.stitched = stitchWindows(outcome.windows);
    return outcome;
}

WindowedOutcome
runWindowedExperiment(const runner::Experiment &exp,
                      const WindowPlan &plan, unsigned jobs)
{
    runner::GridScheduler::Options options;
    const unsigned requested =
        jobs == 0 ? runner::ThreadPool::hardwareJobs() : jobs;
    options.workers = static_cast<unsigned>(
        std::min<std::size_t>(requested, plan.windows.size()));
    runner::GridScheduler scheduler(options);
    return runWindowedExperiment(exp, plan, scheduler, 0);
}

} // namespace window
} // namespace shotgun
