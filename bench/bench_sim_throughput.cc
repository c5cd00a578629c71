/**
 * @file
 * End-to-end simulator throughput micro-benchmark: wall-clock
 * simulated instructions/sec (and cycles/sec) of runSimulation()
 * over a fixed preset, per scheme. Emits JSON so CI can track the
 * numbers and future changes can enforce a cycles/sec budget (the
 * ROADMAP item bench_micro_structures does not cover: it guards
 * structure throughput, not the full simulation loop).
 *
 *   bench_sim_throughput [--workload NAME] [--schemes LIST]
 *       [--instructions N] [--warmup N] [--repeats N]
 *       [--grid-schemes LIST] [--out FILE]
 *
 * Each (workload, scheme) point is simulated --repeats times and the
 * best run is reported (least-noise estimator for throughput). The
 * simulated results themselves are deterministic; only the timings
 * vary across machines.
 *
 * A final "batched-grid" row times the one-pass pipeline: the
 * workload is recorded to a temporary trace and a --grid-schemes
 * grid over it runs through ExperimentRunner (shared decode, warmed
 * checkpoints, the predecessor gate), reporting effective throughput =
 * sum of every point's warmup+measured instructions over the grid's
 * wall-clock. The gap between this row and the per-scheme rows is
 * the win the reuse machinery buys.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/parse.hh"
#include "obs/trace.hh"
#include "prefetch/factory.hh"
#include "runner/experiment.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/presets.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

#include <unistd.h>

using namespace shotgun;

namespace
{

const char *kUsage =
    "usage:\n"
    "  bench_sim_throughput [--workload NAME] [--schemes LIST]\n"
    "      [--instructions N] [--warmup N] [--repeats N]\n"
    "      [--grid-schemes LIST] [--out FILE]\n"
    "\n"
    "Measures end-to-end runSimulation() throughput (simulated\n"
    "instructions and cycles per wall-clock second) over one preset\n"
    "(default nutch) for each scheme (default baseline,shotgun),\n"
    "reporting the best of --repeats (default 3) runs as JSON to\n"
    "--out (default stdout). A final batched-grid row times a\n"
    "--grid-schemes grid (default all six evaluated schemes) over a\n"
    "recorded trace of the workload through the one-pass pipeline\n"
    "(shared decode + warmed checkpoints + predecessor gate).\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "bench_sim_throughput: %s\n%s",
                 message.c_str(), kUsage);
    std::exit(cli::kUsageExitCode);
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start < text.size()) {
        const auto comma = text.find(',', start);
        const auto end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/**
 * Best (least-noise) wall-clock seconds of `repeats` calls of `run`.
 * The simulated results are deterministic; only the timings vary.
 */
template <class Run>
double
bestSeconds(std::uint64_t repeats, Run run)
{
    double best = 0.0;
    for (std::uint64_t r = 0; r < repeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        run();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (r == 0 || seconds < best)
            best = seconds;
    }
    return best;
}

/**
 * One single-config row: the best of `repeats` runSimulation() calls
 * of `config`, labelled `label` (the result's scheme when empty).
 * `note` ends the stderr line; a tracked-only row (!enforced) carries
 * budget_enforced=false, which the budget check never fails on.
 */
json::Value
configRow(const SimConfig &config, std::uint64_t repeats,
          std::string label, const char *note, bool enforced)
{
    // Warm the program memo outside the timed region: building the
    // synthetic image is one-time setup, not simulation.
    programFor(config.workload);

    SimResult result;
    const double best_seconds = bestSeconds(
        repeats, [&]() { result = runSimulation(config); });
    if (label.empty())
        label = result.scheme;
    // Warm-up instructions are simulated work too; count them in the
    // throughput so the metric reflects the real loop cost.
    const std::uint64_t warmup = config.warmupInstructions;
    const double simulated =
        static_cast<double>(warmup + result.instructions);
    const double ips =
        best_seconds > 0.0 ? simulated / best_seconds : 0.0;
    const double cps =
        best_seconds > 0.0
            ? static_cast<double>(result.cycles) / best_seconds
            : 0.0;

    using json::Value;
    Value row = Value::object();
    row.set("workload", Value::string(result.workload));
    row.set("scheme", Value::string(label));
    row.set("warmup_instructions", Value::number(warmup));
    row.set("measured_instructions", Value::number(result.instructions));
    row.set("measured_cycles",
            Value::number(std::uint64_t{result.cycles}));
    row.set("best_seconds", Value::number(best_seconds));
    row.set("instructions_per_second", Value::number(ips));
    row.set("cycles_per_second", Value::number(cps));
    if (!enforced)
        row.set("budget_enforced", Value::boolean(false));

    std::fprintf(stderr,
                 "%s/%s: %.2f Minstr/s, %.2f Mcycles/s "
                 "(best of %llu x %.3fs%s)\n",
                 result.workload.c_str(), label.c_str(), ips / 1e6,
                 cps / 1e6, static_cast<unsigned long long>(repeats),
                 best_seconds, note);
    return row;
}

int
runTool(int argc, char **argv)
{
    int exit_code = 0;
    if (cli::handleStandardFlags(argc, argv, "bench_sim_throughput",
                                 kUsage, exit_code))
        return exit_code;

    std::string workload = "nutch";
    std::vector<std::string> schemes{"baseline", "shotgun"};
    std::vector<std::string> grid_schemes{"baseline",   "fdip",
                                          "boomerang",  "confluence",
                                          "shotgun",    "rdip"};
    std::uint64_t measure = 2000000, warmup = 500000, repeats = 3;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError(std::string(flag) + ": missing value");
            return argv[++i];
        };
        auto nextU64 = [&](const char *flag) {
            std::uint64_t value = 0;
            const char *text = next(flag);
            if (!parseU64(text, value) || value == 0)
                usageError(std::string(flag) +
                           ": expected a nonzero decimal count");
            return value;
        };
        if (std::strcmp(argv[i], "--workload") == 0)
            workload = next("--workload");
        else if (std::strcmp(argv[i], "--schemes") == 0)
            schemes = splitCommas(next("--schemes"));
        else if (std::strcmp(argv[i], "--instructions") == 0)
            measure = nextU64("--instructions");
        else if (std::strcmp(argv[i], "--warmup") == 0)
            warmup = nextU64("--warmup");
        else if (std::strcmp(argv[i], "--repeats") == 0)
            repeats = nextU64("--repeats");
        else if (std::strcmp(argv[i], "--grid-schemes") == 0)
            grid_schemes = splitCommas(next("--grid-schemes"));
        else if (std::strcmp(argv[i], "--out") == 0)
            out_path = next("--out");
        else
            usageError(std::string("unknown option '") + argv[i] +
                       "'");
    }
    if (schemes.empty())
        usageError("--schemes: expected a scheme list");

    const WorkloadPreset preset = presetByName(workload);

    using json::Value;
    Value rows = Value::array();
    auto configFor = [&](const std::string &scheme) {
        SimConfig config =
            SimConfig::make(preset, schemeTypeByName(scheme));
        config.warmupInstructions = warmup;
        config.measureInstructions = measure;
        return config;
    };
    for (const std::string &scheme : schemes)
        rows.push(configRow(configFor(scheme), repeats, "", "", true));

    {
        // Tracing-overhead row: the shotgun scheme re-run with span
        // tracing fully on (enabled tracer + installed trace
        // context), so the cost of the observability layer is
        // visible in the trajectory next to the untraced rows. The
        // row is tracked only, while the determinism fields still
        // pin that tracing cannot change simulated results.
        obs::tracer().setProcessName("bench");
        obs::tracer().enable(obs::newTraceId());
        obs::TraceContext trace_ctx;
        trace_ctx.traceId = obs::tracer().defaultTraceId();
        trace_ctx.lane = "bench";
        {
            obs::ScopedTraceContext scope(&trace_ctx);
            rows.push(configRow(configFor("shotgun"), repeats,
                                "shotgun+tracing", ", spans on", false));
        }
        obs::tracer().disable();
    }

    {
        // Uarch-probe-overhead row: the shotgun scheme re-run with
        // the microarchitectural probes on (cycle-exact stall
        // attribution, lifecycle counters, miss-site sketches), the
        // tracked twin of the tracing row above: the probes cannot
        // change simulated results either.
        SimConfig config = configFor("shotgun");
        config.core.uarchProbes = true;
        rows.push(configRow(config, repeats, "shotgun+uarch-probes",
                            ", probes on", false));
    }

    if (!grid_schemes.empty()) {
        // One-pass pipeline row: record the workload to a temporary
        // trace (setup, untimed), then time a multi-scheme grid over
        // it through ExperimentRunner -- one decode feeds every
        // scheme, each scheme warms once per repeat set (warmed
        // checkpoints), the gate batches the grid points. Effective
        // throughput counts every point's full simulated work.
        const std::string trace_path =
            "/tmp/bench_sim_throughput_" +
            std::to_string(::getpid()) + ".trace";
        SimConfig base =
            SimConfig::make(preset, SchemeType::Baseline);
        base.warmupInstructions = warmup;
        base.measureInstructions = measure;
        {
            Program prog(preset.program);
            TraceGenerator gen(prog, base.traceSeed);
            recordTraceInstructions(gen, preset, base.traceSeed,
                                    trace_path,
                                    warmup + measure + 10000);
            writeTraceIndex(traceIndexPath(trace_path),
                            buildTraceIndex(trace_path, 4096));
        }
        const WorkloadPreset replay =
            presetByName("trace:" + trace_path);

        std::vector<runner::Experiment> grid;
        for (const std::string &scheme : grid_schemes) {
            runner::Experiment exp;
            exp.workload = replay.name;
            exp.label = scheme;
            exp.config =
                SimConfig::make(replay, schemeTypeByName(scheme));
            exp.config.warmupInstructions = warmup;
            exp.config.measureInstructions = measure;
            grid.push_back(std::move(exp));
        }

        std::vector<SimResult> results;
        const double best_seconds = bestSeconds(repeats, [&]() {
            results = runner::ExperimentRunner().run(grid);
        });

        std::uint64_t total_instructions = 0, total_cycles = 0;
        for (const SimResult &result : results) {
            total_instructions += warmup + result.instructions;
            total_cycles += result.cycles;
        }
        const double ips =
            best_seconds > 0.0
                ? static_cast<double>(total_instructions) /
                      best_seconds
                : 0.0;

        Value row = Value::object();
        row.set("workload", Value::string(replay.name));
        row.set("scheme", Value::string("batched-grid"));
        row.set("grid_points",
                Value::number(std::uint64_t{grid.size()}));
        row.set("warmup_instructions", Value::number(warmup));
        row.set("measured_instructions",
                Value::number(total_instructions));
        row.set("measured_cycles", Value::number(total_cycles));
        row.set("best_seconds", Value::number(best_seconds));
        row.set("instructions_per_second", Value::number(ips));
        row.set("cycles_per_second",
                Value::number(best_seconds > 0.0
                                  ? static_cast<double>(total_cycles) /
                                        best_seconds
                                  : 0.0));
        rows.push(std::move(row));

        std::fprintf(stderr,
                     "%s/batched-grid (%zu schemes): %.2f effective "
                     "Minstr/s (best of %llu x %.3fs)\n",
                     replay.name.c_str(), grid.size(), ips / 1e6,
                     static_cast<unsigned long long>(repeats),
                     best_seconds);

        std::remove(traceIndexPath(trace_path).c_str());
        std::remove(trace_path.c_str());
    }

    Value doc = Value::object();
    doc.set("experiment", Value::string("sim_throughput"));
    doc.set("repeats", Value::number(repeats));
    doc.set("rows", std::move(rows));

    if (out_path.empty()) {
        std::printf("%s\n", doc.dump().c_str());
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr,
                         "bench_sim_throughput: cannot write '%s'\n",
                         out_path.c_str());
            return 1;
        }
        out << doc.dump() << "\n";
        std::fprintf(stderr, "results: %s\n", out_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A trace the run cannot use ends the tool: exit 1 with its
    // message (trace/trace_io.hh).
    return fatalOnTraceError([&]() { return runTool(argc, argv); });
}
