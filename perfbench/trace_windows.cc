/**
 * @file
 * trace-windows: one oracle trace, recorded in set-up, replayed by all
 * six schemes -- first monolithically through ExperimentRunner, then
 * each as a contiguous window plan through runWindowedExperiment on
 * one shared scheduler, stitched back with stitchWindows. This is the
 * reuse path paper-sweep bypasses: one shared decode, cursors instead
 * of the generator, a warmup capture per scheme that every window
 * restores, cohort gating, window fast-forward and stitching. Each
 * timed grid runs cold in a fresh child.
 *
 * Checks: stitched == monolithic bit for bit; every monolithic result
 * and every restored window's raw counters equal digests recorded
 * from cold, one-point-per-process runs (restored == cold); restores
 * == window sub-points; decodes == 1. The seed permutes the order in
 * which the window plans are submitted; the trace itself is fixed, so the
 * accuracy figures are the same on every run.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "prefetch/factory.hh"
#include "runner/experiment.hh"
#include "service/codec.hh"
#include "sim/checkpoint.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "window/windowed_runner.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace shotgun;

namespace
{

// Heaviest schemes first, so the six monolithic runs on the pool end
// together instead of waiting on a late shotgun run.
const char *const kSchemes[] = {"shotgun", "confluence", "boomerang",
                                "rdip",    "fdip",       "baseline"};

constexpr unsigned kWindows = 4;
constexpr std::uint64_t kTraceSeed = 1;
const char *const kWorkloadName = "oracle-trace";
const char *const kDigestStem = "trace_windows";

constexpr std::uint64_t kPointsPerGrid =
    std::size(kSchemes) * (1 + kWindows);

/** Record the oracle trace the grid replays; returns its path. */
std::string
recordTrace(const Options &options, const std::string &path,
            const Program &program)
{
    const WorkloadPreset oracle = makePreset(WorkloadId::Oracle);
    const Lengths len = gridLengths(options);
    TraceGenerator gen(program, kTraceSeed);
    recordTraceInstructions(gen, oracle, kTraceSeed, path,
                            len.warmup + len.measure + 50000);
    return path;
}

runner::Experiment
monolithic(const WorkloadPreset &replay, const Options &options,
           const std::string &scheme)
{
    const Lengths len = gridLengths(options);
    runner::Experiment exp;
    exp.workload = replay.name;
    exp.label = scheme;
    exp.config = SimConfig::make(replay, schemeTypeByName(scheme));
    exp.config.warmupInstructions = len.warmup;
    exp.config.measureInstructions = len.measure;
    return exp;
}

/**
 * What the traced spans of the windowed phase show, per window plan
 * (identified by the benchmark's "plan" span each plan runs under):
 *
 *  - cohort wait: the followers' time from submit to dispatch ("queued"
 *    spans) beyond the leader's -- how long the cohort gate and the
 *    pool held them after their leader was free to run;
 *  - fast-forward: host time of the windows' measure phases beyond
 *    the monolithic run's measure phase of the same scheme -- the
 *    simulating each window does between its restored warmup and its
 *    measured slice -- over the monolithic measure-phase time.
 */
void
windowSpanFigures(const std::vector<std::uint64_t> &plan_span,
                  const std::vector<std::uint64_t> &mono_measure_us,
                  Value &out)
{
    std::map<std::uint64_t, std::size_t> plan_of;
    for (std::size_t s = 0; s < plan_span.size(); ++s)
        plan_of[plan_span[s]] = s;
    const std::vector<obs::SpanRecord> spans = obs::tracer().snapshot();
    std::vector<std::vector<double>> queued_s(plan_span.size());
    std::map<std::uint64_t, std::size_t> dispatched_plan;
    for (const obs::SpanRecord &span : spans) {
        const auto it = plan_of.find(span.parent);
        if (span.category != "sched" || it == plan_of.end())
            continue;
        if (span.name == "queued")
            queued_s[it->second].push_back(
                static_cast<double>(span.durUs) / 1e6);
        else if (span.name == "dispatched")
            dispatched_plan[span.id] = it->second;
    }
    std::vector<double> window_measure_us(plan_span.size(), 0.0);
    for (const obs::SpanRecord &span : spans) {
        const auto it = dispatched_plan.find(span.parent);
        if (span.category == "sim" && span.name == "measure" &&
            it != dispatched_plan.end())
            window_measure_us[it->second] +=
                static_cast<double>(span.durUs);
    }

    double cohort_wait = 0.0, fast_forward = 0.0, measured = 0.0;
    for (std::size_t s = 0; s < plan_span.size(); ++s) {
        if (!queued_s[s].empty()) {
            const double leader =
                *std::min_element(queued_s[s].begin(), queued_s[s].end());
            for (double q : queued_s[s])
                cohort_wait += q - leader;
        }
        const auto mono = static_cast<double>(mono_measure_us[s]);
        fast_forward += window_measure_us[s] - mono;
        measured += mono;
    }
    out.set("cohort_wait_s", Value::number(cohort_wait));
    out.set("fastforward_frac", Value::number(fast_forward / measured));
}

/**
 * One cold grid in the calling (child) process: the six monolithic
 * runs, then the six window plans concurrently on one scheduler.
 */
Value
runGrid(const Options &options, const std::string &trace_path,
        bool traced)
{
    const WorkloadPreset replay =
        presetByName("trace:" + trace_path + ":" + kWorkloadName);
    std::vector<runner::Experiment> mono_grid;
    for (const char *scheme : kSchemes)
        mono_grid.push_back(monolithic(replay, options, scheme));
    const std::vector<std::size_t> submit_order =
        permutation(mono_grid.size(), options.seed);
    const window::WindowPlan plan =
        window::contiguousPlan(mono_grid.front().config, kWindows);

    std::unique_ptr<TracingScope> tracing;
    if (traced)
        tracing = std::make_unique<TracingScope>(obs::newTraceId(),
                                                 "trace-windows");
    const unsigned jobs = hostJobs();
    runner::RunnerOptions ropts;
    ropts.jobs = jobs;
    std::vector<std::uint64_t> mono_measure_us(mono_grid.size(), 0);
    if (traced) {
        ropts.onObservation = [&](std::size_t index,
                                  const obs::PointTiming &timing,
                                  const std::vector<obs::SpanRecord> &) {
            mono_measure_us[index] = timing.measureUs;
        };
    }

    const auto start = Clock::now();
    std::vector<SimResult> mono;
    {
        obs::Span span("monolithic", "bench");
        mono = runner::ExperimentRunner(ropts).run(mono_grid);
    }

    std::vector<window::WindowedOutcome> windowed(mono_grid.size());
    std::vector<std::uint64_t> plan_span(mono_grid.size(), 0);
    {
        obs::Span span("windowed", "bench");
        const obs::TraceContext *parent = obs::currentTraceContext();
        runner::GridScheduler scheduler{
            runner::GridScheduler::Options(jobs)};
        std::vector<std::thread> submitters;
        std::mutex error_mutex;
        std::string error;
        for (std::size_t s : submit_order) {
            submitters.emplace_back([&, s]() {
                // Re-install the grid's trace context so the windowed
                // jobs are traced like the monolithic ones, each plan
                // under a span of its own.
                obs::TraceContext ctx;
                if (parent != nullptr) {
                    ctx = *parent;
                    ctx.parentSpan = span.id();
                }
                obs::ScopedTraceContext scope(parent != nullptr ? &ctx
                                                                : nullptr);
                obs::Span plan_scope("plan", "bench");
                plan_span[s] = plan_scope.id();
                try {
                    windowed[s] = window::runWindowedExperiment(
                        mono_grid[s], plan, scheduler);
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    error = e.what();
                }
            });
        }
        for (std::thread &t : submitters)
            t.join();
        if (!error.empty())
            throw std::runtime_error(error);
    }
    const double seconds = secondsSince(start);

    // Re-stitch outside the grid, timed on its own: the runner already
    // stitched, this measures what stitching costs.
    const auto stitch_start = Clock::now();
    for (const window::WindowedOutcome &o : windowed)
        window::stitchWindows(o.windows);
    const double stitch_us =
        secondsSince(stitch_start) * 1e6 /
        static_cast<double>(mono_grid.size());

    Value out = Value::object();
    out.set("seconds", Value::number(seconds));
    out.set("rss_mb", Value::number(peakRssMb()));
    out.set("stitch_us", Value::number(stitch_us));
    const MemoCacheStats cp = checkpointCache().stats();
    out.set("restores", Value::number(std::uint64_t{cp.hits}));
    out.set("captures", Value::number(std::uint64_t{cp.misses}));
    out.set("checkpoint_bytes", Value::number(std::uint64_t{cp.bytes}));
    out.set("decodes",
            Value::number(std::uint64_t{decodedTraces().stats().decodes}));

    // Delivered results: six monolithic and six stitched, each the
    // full measure region; windows are pieces, not results.
    std::uint64_t instructions = 0;
    Value points = Value::array();
    for (std::size_t s = 0; s < mono_grid.size(); ++s) {
        instructions += mono[s].instructions + windowed[s].stitched.instructions;
        Value p = Value::object();
        p.set("scheme", Value::string(kSchemes[s]));
        p.set("mono", service::encodeSimResult(mono[s]));
        p.set("mono_digest", Value::string(digest(p.at("mono"))));
        p.set("stitched_equal",
              Value::boolean(windowed[s].stitched == mono[s]));
        Value windows = Value::array();
        for (const SimulationDelta &d : windowed[s].windows)
            windows.push(
                Value::string(digest(service::encodeStatsDelta(d.stats))));
        p.set("window_digests", std::move(windows));
        points.push(std::move(p));
    }
    out.set("instructions", Value::number(instructions));
    out.set("points", std::move(points));
    if (traced) {
        windowSpanFigures(plan_span, mono_measure_us, out);
        out.set("spans", spansToJson(obs::tracer().snapshot()));
    }
    return out;
}

/** Checks one grid's outcome; returns the failed point count. */
std::uint64_t
checkGrid(const Value &grid, const std::map<std::string, std::string> &stored,
          Report &report)
{
    std::uint64_t bad = 0;
    auto expect = [&](const std::string &key, const std::string &got) {
        const auto it = stored.find(key);
        if (it != stored.end() && it->second == got)
            return true;
        report.error("trace-windows " + key + " digest " + got +
                     " != stored " +
                     (it == stored.end() ? "(none)" : it->second));
        return false;
    };
    for (const Value &p : grid.at("points").items()) {
        const std::string &scheme = p.at("scheme").asString();
        if (!expect(scheme + "/mono", p.at("mono_digest").asString()))
            ++bad;
        if (!p.at("stitched_equal").asBool()) {
            ++bad;
            report.error("trace-windows " + scheme +
                         ": stitched != monolithic");
        }
        const auto &windows = p.at("window_digests").items();
        for (std::size_t w = 0; w < windows.size(); ++w) {
            if (!expect(scheme + "/w" + std::to_string(w),
                        windows[w].asString()))
                ++bad;
        }
    }
    return bad;
}

std::vector<AccuracyPoint>
accuracyPoints(const Value &grid)
{
    AccuracyPoint point{WorkloadId::Oracle, {}, {}};
    for (const Value &p : grid.at("points").items()) {
        if (p.at("scheme").asString() == "baseline")
            point.baseline = service::decodeSimResult(p.at("mono"));
        if (p.at("scheme").asString() == "shotgun")
            point.shotgun = service::decodeSimResult(p.at("mono"));
    }
    return {point};
}

/** The workload for the shared loops; `stored` must outlive it. */
GridWorkload
windowsWorkload(const Options &options, const std::string &trace_path,
                const std::map<std::string, std::string> &stored)
{
    GridWorkload w;
    w.name = "trace-windows";
    w.points = kPointsPerGrid;
    w.run = [options, trace_path](bool traced) {
        return runGrid(options, trace_path, traced);
    };
    w.check = [&stored](const Value &g, Report &report) {
        return checkGrid(g, stored, report);
    };
    return w;
}

} // namespace

void
traceWindowsMeasure(const Options &options, Report &report)
{
    const std::map<std::string, std::string> stored =
        readDigests(digestPath(options, kDigestStem));
    const std::string trace_path = recordTrace(
        options, "oracle.trace", programFor(makePreset(WorkloadId::Oracle)));
    const GridTally tally = timeGrids(
        options, windowsWorkload(options, trace_path, stored), report);
    ::unlink(trace_path.c_str());
    if (tally.grids == 0)
        return;

    // Set-up trials after the loop (see paperSweepMeasure). Each
    // trial's process inherited the built image, so it builds it again
    // outside programFor's memo.
    report.metric("setup_s", medianSetupSeconds(9, [&](unsigned trial) {
                      const std::string path =
                          "setup-trial-" + std::to_string(trial) + ".trace";
                      recordTrace(options, path,
                                  Program(makePreset(WorkloadId::Oracle)
                                              .program));
                      ::unlink(path.c_str());
                  }),
                  "s");
    report.check("trace-windows checkpoint restores (== window "
                 "sub-points)",
                 tally.restores, tally.grids * std::size(kSchemes) * kWindows);
    report.check("trace-windows warmups simulated", tally.captures,
                 tally.grids * std::size(kSchemes));
    report.check("trace-windows trace decodes (1 per grid)", tally.decodes,
                 tally.grids);
    reportAccuracy(report, accuracyPoints(tally.first));
}

void
traceWindowsLayers(const Options &options, Report &report,
                   LayerTotals &totals, bool primary)
{
    const std::map<std::string, std::string> stored =
        readDigests(digestPath(options, kDigestStem));
    const std::string trace_path = recordTrace(
        options, "oracle.trace", programFor(makePreset(WorkloadId::Oracle)));

    // Decode and cursor cost, measured directly on the recorded file.
    {
        obs::Span span("probe.trace.decode", "bench");
        std::vector<double> decode_ms, cursor_ns;
        for (int i = 0; i < 3; ++i) {
            const auto start = Clock::now();
            auto decoded = std::make_shared<const DecodedTrace>(trace_path);
            decode_ms.push_back(secondsSince(start) * 1e3);
            DecodedTraceCursor cursor(decoded);
            BBRecord rec;
            std::uint64_t instrs = 0;
            const auto walk = Clock::now();
            while (cursor.next(rec))
                instrs += rec.numInstrs;
            cursor_ns.push_back(secondsSince(walk) * 1e9 /
                                static_cast<double>(instrs));
        }
        report.metric("trace.decode_ms", median(decode_ms), "ms");
        report.metric("trace.cursor_ns_per_instr", median(cursor_ns),
                      "ns");
    }

    const Value last = traceGrids(
        options, windowsWorkload(options, trace_path, stored), report,
        primary);
    ::unlink(trace_path.c_str());
    totals.addGrid(last, hostJobs());
    totals.cohortWaitS += last.at("cohort_wait_s").asDouble();

    report.metric("trace.decodes",
                  static_cast<double>(last.at("decodes").asU64()), "count");
    report.check("trace-windows trace decodes", last.at("decodes").asU64(),
                 1);
    report.check("trace-windows checkpoint restores (== window "
                 "sub-points)",
                 last.at("restores").asU64(),
                 std::size(kSchemes) * kWindows);
    report.metric("window.stitch_us", last.at("stitch_us").asDouble(),
                  "us");
    report.metric("window.fastforward_frac",
                  last.at("fastforward_frac").asDouble(), "ratio");
}

void
traceWindowsRecordDigests(const Options &options)
{
    // Every point simulated cold in its own process: the reference the
    // timed grid's restored windows must reproduce bit for bit.
    const std::string trace_path = recordTrace(
        options, "oracle.trace", programFor(makePreset(WorkloadId::Oracle)));
    const WorkloadPreset replay =
        presetByName("trace:" + trace_path + ":" + kWorkloadName);
    std::map<std::string, std::string> digests;
    for (const char *scheme : kSchemes) {
        const runner::Experiment exp = monolithic(replay, options, scheme);
        const Value mono = runInChild([&]() {
            Value v = Value::object();
            v.set("digest", Value::string(digest(service::encodeSimResult(
                                runSimulation(exp.config)))));
            return v;
        });
        digests[std::string(scheme) + "/mono"] =
            mono.at("digest").asString();
        const std::vector<runner::Experiment> windows =
            window::expandExperiment(
                exp, window::contiguousPlan(exp.config, kWindows));
        for (std::size_t w = 0; w < windows.size(); ++w) {
            const Value cold = runInChild([&]() {
                Value v = Value::object();
                v.set("digest",
                      Value::string(digest(service::encodeStatsDelta(
                          runSimulationDelta(windows[w].config).stats))));
                return v;
            });
            digests[std::string(scheme) + "/w" + std::to_string(w)] =
                cold.at("digest").asString();
        }
    }
    ::unlink(trace_path.c_str());
    const Lengths len = gridLengths(options);
    writeDigests(digestPath(options, kDigestStem),
                 "trace-windows: cold per-point digests (monolithic "
                 "SimResult, per-window StatsDelta), oracle trace seed 1, "
                 "warmup " +
                     std::to_string(len.warmup) + ", measure " +
                     std::to_string(len.measure) + ", " +
                     std::to_string(kWindows) + " windows",
                 digests);
}

} // namespace perfbench
