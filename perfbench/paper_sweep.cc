/**
 * @file
 * paper-sweep: the six presets x the six evaluated schemes, generated
 * live and run in one process through ExperimentRunner -- the grid a
 * user runs to reproduce Fig 7 and Table 1, at the repository's quick
 * lengths for it. Every grid runs cold in a fresh child, so no
 * checkpoint is ever restored (each capture is wasted work) and no
 * socket is opened: reuse and service changes must leave these numbers
 * alone, while core-loop, scheme and structure changes move them. The
 * seed orders the schemes within each preset; each point's result is
 * checked against a digest stored with the benchmark.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "prefetch/factory.hh"
#include "runner/experiment.hh"
#include "service/codec.hh"
#include "sim/checkpoint.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace shotgun;

namespace
{

const char *const kSchemes[] = {"baseline",   "fdip",    "boomerang",
                                "confluence", "shotgun", "rdip"};

const char *const kDigestStem = "paper_sweep";

std::string
pointKey(const runner::Experiment &exp)
{
    return exp.workload + "/" + exp.label;
}

/**
 * The 36-point grid in submission order: presets by descending paper
 * BTB MPKI (largest branch working set, hence longest points, first,
 * so the pool's tail is short whatever the seed), the six schemes of
 * each preset in a seed-drawn order.
 */
std::vector<runner::Experiment>
sweepGrid(const Options &options)
{
    const Lengths len = gridLengths(options);
    std::vector<WorkloadPreset> presets = allPresets();
    std::stable_sort(presets.begin(), presets.end(),
                     [](const WorkloadPreset &a, const WorkloadPreset &b) {
                         return paperBtbMpki(a.id) > paperBtbMpki(b.id);
                     });
    std::vector<runner::Experiment> grid;
    for (const WorkloadPreset &preset : presets) {
        for (std::size_t i :
             permutation(std::size(kSchemes),
                         options.seed * 16 + static_cast<int>(preset.id))) {
            runner::Experiment exp;
            exp.workload = preset.name;
            exp.label = kSchemes[i];
            exp.config =
                SimConfig::make(preset, schemeTypeByName(kSchemes[i]));
            exp.config.warmupInstructions = len.warmup;
            exp.config.measureInstructions = len.measure;
            grid.push_back(std::move(exp));
        }
    }
    return grid;
}

void
buildPrograms()
{
    for (const WorkloadPreset &preset : allPresets())
        programFor(preset);
}

/**
 * One cold grid, run in the calling (child) process. Returns its
 * wall time, results, digests and cache counters; traced runs add
 * per-point timing and every recorded span.
 */
Value
runGrid(const std::vector<runner::Experiment> &grid, bool traced)
{
    runner::RunnerOptions ropts;
    ropts.jobs = hostJobs();
    std::vector<obs::PointTiming> point_timing(grid.size());
    if (traced) {
        ropts.onObservation = [&](std::size_t index,
                                  const obs::PointTiming &timing,
                                  const std::vector<obs::SpanRecord> &) {
            point_timing[index] = timing;
        };
    }
    std::unique_ptr<TracingScope> tracing;
    if (traced)
        tracing = std::make_unique<TracingScope>(obs::newTraceId(),
                                                 "paper-sweep");

    const auto start = Clock::now();
    std::vector<SimResult> results;
    {
        obs::Span span("grid", "bench");
        results = runner::ExperimentRunner(ropts).run(grid);
    }
    const double seconds = secondsSince(start);

    Value out = Value::object();
    out.set("seconds", Value::number(seconds));
    out.set("rss_mb", Value::number(peakRssMb()));
    const MemoCacheStats cp = checkpointCache().stats();
    out.set("restores", Value::number(std::uint64_t{cp.hits}));
    out.set("captures", Value::number(std::uint64_t{cp.misses}));
    out.set("checkpoint_bytes", Value::number(std::uint64_t{cp.bytes}));
    out.set("decodes", Value::number(std::uint64_t{0}));
    std::uint64_t instructions = 0;
    Value encoded = Value::array();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        instructions += results[i].instructions;
        Value point = Value::object();
        point.set("key", Value::string(pointKey(grid[i])));
        point.set("result", service::encodeSimResult(results[i]));
        point.set("digest", Value::string(digest(point.at("result"))));
        if (traced) {
            const obs::PointTiming &t = point_timing[i];
            Value timing = Value::object();
            timing.set("measure_us", Value::number(t.measureUs));
            point.set("timing", std::move(timing));
        }
        encoded.push(std::move(point));
    }
    out.set("instructions", Value::number(instructions));
    out.set("points", std::move(encoded));
    if (traced)
        out.set("spans", spansToJson(obs::tracer().snapshot()));
    return out;
}

/** Each point of a grid against its stored digest. */
std::uint64_t
checkGrid(const Value &grid, const std::map<std::string, std::string> &stored,
          Report &report)
{
    std::uint64_t bad = 0;
    for (const Value &point : grid.at("points").items()) {
        const std::string &key = point.at("key").asString();
        const std::string &got = point.at("digest").asString();
        const auto it = stored.find(key);
        if (it == stored.end() || it->second != got) {
            ++bad;
            report.error("paper-sweep " + key + " digest " + got +
                         " != stored " +
                         (it == stored.end() ? "(none)" : it->second));
        }
    }
    return bad;
}

std::vector<AccuracyPoint>
accuracyPoints(const Value &grid)
{
    std::map<std::string, SimResult> by_key;
    for (const Value &point : grid.at("points").items())
        by_key[point.at("key").asString()] =
            service::decodeSimResult(point.at("result"));
    std::vector<AccuracyPoint> out;
    for (const WorkloadPreset &preset : allPresets()) {
        out.push_back({preset.id, by_key.at(preset.name + "/baseline"),
                       by_key.at(preset.name + "/shotgun")});
    }
    return out;
}

/** The workload for the shared loops; `stored` must outlive it. */
GridWorkload
sweepWorkload(const Options &options,
              const std::map<std::string, std::string> &stored)
{
    const std::vector<runner::Experiment> grid = sweepGrid(options);
    GridWorkload w;
    w.name = "paper-sweep";
    w.points = grid.size();
    w.run = [grid](bool traced) { return runGrid(grid, traced); };
    w.check = [&stored](const Value &g, Report &report) {
        return checkGrid(g, stored, report);
    };
    return w;
}

} // namespace

void
paperSweepMeasure(const Options &options, Report &report)
{
    const std::map<std::string, std::string> stored =
        readDigests(digestPath(options, kDigestStem));
    buildPrograms();
    const GridWorkload workload = sweepWorkload(options, stored);
    const GridTally tally = timeGrids(options, workload, report);
    if (tally.grids == 0)
        return;

    // Set-up trials run after the loop, on a host as busy as the one
    // the grids ran on. Each trial's process inherited the built
    // images, so it builds them again outside programFor's memo.
    report.metric("setup_s", medianSetupSeconds(9, [](unsigned) {
                      for (const WorkloadPreset &preset : allPresets())
                          Program program(preset.program);
                  }),
                  "s");
    report.check("paper-sweep checkpoint restores", tally.restores, 0);
    report.check("paper-sweep warmups simulated", tally.captures,
                 tally.grids * workload.points);
    reportAccuracy(report, accuracyPoints(tally.first));
}

void
paperSweepLayers(const Options &options, Report &report,
                 LayerTotals &totals, bool primary)
{
    const auto setup_start = Clock::now();
    buildPrograms();
    std::printf("paper-sweep set-up: %.3f s\n", secondsSince(setup_start));
    const std::map<std::string, std::string> stored =
        readDigests(digestPath(options, kDigestStem));
    const Value last =
        traceGrids(options, sweepWorkload(options, stored), report, primary);
    totals.addGrid(last, hostJobs());

    // Host time per simulated instruction: measure phase only, from
    // the last traced grid's per-point timing.
    std::map<std::string, std::pair<double, double>> per_scheme;
    for (const Value &point : last.at("points").items()) {
        const SimResult r = service::decodeSimResult(point.at("result"));
        const double measure_ns =
            point.at("timing").at("measure_us").asDouble() * 1000.0;
        const auto instrs = static_cast<double>(r.instructions);
        const std::string &key = point.at("key").asString();
        const std::string scheme = key.substr(key.find('/') + 1);
        per_scheme[scheme].first += measure_ns;
        per_scheme[scheme].second += instrs;
        if (scheme == "baseline") {
            const std::string preset = key.substr(0, key.find('/'));
            report.metric("cpu." + preset + ".host_ns_per_instr",
                          measure_ns / instrs, "ns");
            report.metric("cpu." + preset + ".host_ns_per_cycle",
                          measure_ns / static_cast<double>(r.cycles),
                          "ns");
        }
    }
    for (const auto &[scheme, sums] : per_scheme)
        report.metric("prefetch." + scheme + ".host_ns_per_instr",
                      sums.first / sums.second, "ns");
    report.check("paper-sweep checkpoint restores",
                 last.at("restores").asU64(), 0);
}

void
paperSweepRecordDigests(const Options &options)
{
    buildPrograms();
    const Value grid = runInChild(
        [&]() { return runGrid(sweepGrid(options), false); });
    if (const Value *err = grid.find("error"))
        throw std::runtime_error("paper-sweep grid failed: " +
                                 err->asString());
    std::map<std::string, std::string> digests;
    for (const Value &point : grid.at("points").items())
        digests[point.at("key").asString()] =
            point.at("digest").asString();
    const Lengths len = gridLengths(options);
    writeDigests(digestPath(options, kDigestStem),
                 "paper-sweep: per-point digest of the canonical "
                 "SimResult encoding (warmup " +
                     std::to_string(len.warmup) + ", measure " +
                     std::to_string(len.measure) + ")",
                 digests);
}

} // namespace perfbench
