#include "runner/experiment.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "sim/checkpoint.hh"

#include "runner/grid_scheduler.hh"
#include "runner/progress.hh"

namespace shotgun
{
namespace runner
{

std::size_t
ExperimentSet::add(const WorkloadPreset &preset, std::string label,
                   SimConfig config)
{
    Experiment exp;
    exp.workload = preset.name;
    exp.label = std::move(label);
    exp.config = std::move(config);
    all_.push_back(std::move(exp));
    return all_.size() - 1;
}

std::size_t
ExperimentSet::addBaseline(const WorkloadPreset &preset,
                           std::uint64_t warmup, std::uint64_t measure,
                           std::uint64_t trace_seed)
{
    auto it = baselines_.find(preset.name);
    if (it != baselines_.end())
        return it->second;

    SimConfig config = SimConfig::make(preset, SchemeType::Baseline);
    config.warmupInstructions = warmup;
    config.measureInstructions = measure;
    config.traceSeed = trace_seed;
    const std::size_t index = add(preset, "baseline", std::move(config));
    baselines_.emplace(preset.name, index);
    return index;
}

std::size_t
ExperimentSet::baselineIndex(const std::string &workload) const
{
    auto it = baselines_.find(workload);
    return it == baselines_.end() ? npos : it->second;
}

void
ExperimentSet::enableUarchProbes()
{
    for (Experiment &exp : all_)
        exp.config.core.uarchProbes = true;
}

std::vector<std::size_t>
checkpointPredecessors(const std::vector<Experiment> &grid,
                       const std::vector<std::size_t> &order)
{
    // Key every point once. A well-formed window that is not its
    // run's last parks its core under (key, end) -- the first such
    // window in grid order is the one its successors wait for.
    std::vector<std::string> keys(grid.size());
    std::map<std::pair<std::string, std::uint64_t>, std::size_t> parks;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const SimConfig &config = grid[i].config;
        if (config.warmupInstructions == 0)
            continue;
        keys[i] = checkpointKey(config, nullptr);
        const SimWindow &w = config.window;
        if (w.enabled() && w.measureStart < w.measureEnd &&
            w.measureEnd < config.measureInstructions)
            parks.emplace(std::make_pair(keys[i], w.measureEnd), i);
    }

    // Chain edges strictly lower the window start, and a key's leader
    // is ungated, so no walk along predecessors can return to itself.
    std::vector<std::size_t> predecessor(grid.size(),
                                         GridScheduler::kNoPredecessor);
    std::map<std::string, std::size_t> leaders;
    for (const std::size_t i : order) {
        if (keys[i].empty())
            continue;
        const auto park = parks.find(
            std::make_pair(keys[i], grid[i].config.window.measureStart));
        if (park != parks.end()) {
            predecessor[i] = park->second;
            continue;
        }
        const auto leader = leaders.emplace(keys[i], i);
        if (!leader.second)
            predecessor[i] = leader.first->second;
    }
    return predecessor;
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options))
{
}

unsigned
ExperimentRunner::effectiveJobs(std::size_t grid_size) const
{
    const unsigned requested =
        options_.jobs == 0 ? hardwareJobs() : options_.jobs;
    if (grid_size == 0)
        return 1;
    return static_cast<unsigned>(
        std::min<std::size_t>(requested, grid_size));
}

std::vector<SimResult>
ExperimentRunner::run(const std::vector<Experiment> &grid) const
{
    if (grid.empty())
        return {};

    ProgressReporter progress(grid.size(), options_.progress);

    // One single-job GridScheduler run: the same cooperative
    // dispatch machinery the simulation service multiplexes many
    // jobs over, so every bench and test exercises the scheduler's
    // ordering guarantees. Results land index-aligned as they are
    // emitted, and this thread waits for the job's onDone.
    //
    // The locals the hooks touch are declared before the scheduler
    // on purpose: it is destroyed -- joining the workers -- first.
    std::vector<SimResult> results(grid.size());
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    GridScheduler::Outcome outcome;

    GridScheduler::Options sched_opts;
    sched_opts.workers = effectiveJobs(grid.size());
    GridScheduler scheduler(sched_opts);

    GridScheduler::JobHooks hooks;
    hooks.simulate = [&progress](std::size_t, const Experiment &exp) {
        const auto start = std::chrono::steady_clock::now();
        SimResult result = runSimulation(exp.config);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        progress.completed(exp.workload + "/" + exp.label, seconds);
        return result;
    };
    if (options_.onObservation) {
        hooks.onObservation =
            [this](std::size_t index,
                   const GridScheduler::PointObservation &point) {
                options_.onObservation(index, point.timing, point.spans);
            };
    }
    hooks.onResult = [&results](std::size_t index, const Experiment &,
                                const SimResult &result) {
        results[index] = result;
    };
    // Gate grid points on their warmed-state checkpoint keys so each
    // key's first point populates the checkpoint cache and every
    // other point restores (or resumes a parked window) instead of
    // re-simulating (see sim/checkpoint.hh).
    hooks.predecessors = checkpointPredecessors;
    hooks.onDone = [&](const GridScheduler::Outcome &o) {
        std::lock_guard<std::mutex> lock(mutex);
        outcome = o;
        done = true;
        cv.notify_one();
    };
    scheduler.submit(grid, 0, std::move(hooks));
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&done]() { return done; });
    }

    // The first simulate exception stops dispatch of the remaining
    // points and is rethrown here once in-flight work finished.
    if (outcome.status == GridScheduler::Outcome::Status::Error)
        std::rethrow_exception(outcome.error);
    return results;
}

std::vector<SimResult>
ExperimentRunner::run(const ExperimentSet &set, ResultSink *sink) const
{
    std::vector<SimResult> results = run(set.experiments());
    if (sink)
        appendResultRows(set, results, *sink);
    return results;
}

void
appendResultRows(const ExperimentSet &set,
                 const std::vector<SimResult> &results,
                 ResultSink &sink,
                 const std::vector<obs::PointTiming> *timings)
{
    const auto &grid = set.experiments();
    // A short results vector would silently truncate the output
    // files -- the exact failure the byte-identical contract between
    // in-process and service runs exists to catch. Fail loudly.
    fatal_if(results.size() != grid.size(),
             "appendResultRows: %zu results for a %zu-point grid",
             results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        ResultRow row;
        row.workload = grid[i].workload;
        row.label = grid[i].label;
        row.result = results[i];
        const std::size_t base = set.baselineIndex(row.workload);
        if (base != ExperimentSet::npos) {
            row.hasBaseline = true;
            row.speedup = speedup(results[i], results[base]);
            row.stallCoverage = stallCoverage(results[i], results[base]);
        }
        if (timings != nullptr && i < timings->size() &&
            (*timings)[i].any()) {
            row.hasTiming = true;
            row.timing = (*timings)[i];
        }
        sink.add(std::move(row));
    }
}

} // namespace runner
} // namespace shotgun
