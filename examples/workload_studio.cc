/**
 * @file
 * Workload studio: build a *custom* synthetic server workload from
 * command-line knobs -- or load a recorded trace -- and characterize
 * it the way Sec 3 of the paper characterizes its commercial
 * workloads: code footprint, branch mix, BTB/L1-I pressure, region
 * spatial locality, and hot-branch coverage. Then runs the main
 * delivery schemes on the workload through the experiment runner
 * (concurrently, --jobs) for an instant paper-style comparison.
 * Useful for generating new calibration points beyond the six
 * shipped presets.
 *
 * Usage: workload_studio [numFuncs] [zipfAlpha] [instructions] [--jobs N]
 *        workload_studio trace:<path>[:name] [instructions] [--jobs N]
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <unordered_map>
#include <vector>

#include "btb/conventional_btb.hh"
#include "cache/cache.hh"
#include "common/cli.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "obs/uarch.hh"
#include "runner/experiment.hh"
#include "sim/simulator.hh"
#include "trace/preset_fields.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

const char kUsage[] = "usage: workload_studio "
                      "[numFuncs|trace:<path>[:name]] [zipfAlpha] "
                      "[instructions] [--jobs N]\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "workload_studio: %s\n%s", message.c_str(),
                 kUsage);
    std::exit(cli::kUsageExitCode);
}

/** A nonzero count no larger than `max`, or a usage error. */
std::uint64_t
countArg(const std::string &what, const char *text, std::uint64_t max)
{
    std::uint64_t value = 0;
    if (!parseU64(text, value) || value == 0 || value > max)
        usageError("expected a nonzero " + what + ", got '" + text + "'");
    return value;
}

/** A finite decimal spelled by the whole of `text`, or a usage error. */
double
alphaArg(const char *text)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value))
        usageError(std::string("expected a zipfAlpha, got '") + text +
                   "'");
    return value;
}

int
runTool(int argc, char **argv)
{
    if (cli::handleHelpFlag(argc, argv, kUsage))
        return 0;
    ProgramParams params;
    params.name = "studio";
    params.numFuncs = 6000;
    params.zipfAlpha = 0.95;
    std::string trace_spec; // trace:<path>[:name] replaces the knobs
    std::uint64_t instructions = 3000000;
    unsigned jobs = 0; // all cores
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs") {
            if (i + 1 >= argc)
                usageError("--jobs: missing value");
            jobs = static_cast<unsigned>(countArg(
                "--jobs count", argv[++i],
                std::numeric_limits<unsigned>::max()));
        } else if (arg.rfind("--", 0) == 0) {
            usageError("unknown option '" + arg + "'");
        } else if (positional == 0 && isTraceWorkloadSpec(arg)) {
            trace_spec = arg;
            positional = 2; // only [instructions] may follow
        } else if (positional == 0) {
            params.numFuncs = static_cast<std::uint32_t>(countArg(
                "numFuncs", argv[i],
                std::numeric_limits<std::uint32_t>::max()));
            ++positional;
        } else if (positional == 1) {
            params.zipfAlpha = alphaArg(argv[i]);
            ++positional;
        } else if (positional == 2) {
            instructions = countArg("instruction count", argv[i],
                                    UINT64_MAX);
            ++positional;
        } else {
            usageError("unexpected argument '" + arg + "'");
        }
    }
    params.numOsFuncs = params.numFuncs / 5;
    params.seed = 0x57d10;
    // The knobs meet the rules a daemon admits a config by, the size
    // cap included.
    if (const char *rule = brokenRule(params))
        usageError(rule);

    WorkloadPreset preset;
    if (trace_spec.empty()) {
        preset.name = params.name;
        preset.program = params;
    } else {
        preset = presetByName(trace_spec);
        std::printf("workload '%s' loaded from %s\n",
                    preset.name.c_str(), preset.tracePath.c_str());
    }

    const Program &program = programFor(preset);
    std::printf("program: %u functions (%u OS), %.2f MB code, %llu "
                "static branch sites\n",
                program.numFunctions(),
                static_cast<unsigned>(preset.program.numOsFuncs),
                program.codeBytes() / 1024.0 / 1024.0,
                static_cast<unsigned long long>(
                    program.numStaticBranches()));

    const auto gen = openTraceSource(preset, program, 1);
    ConventionalBTB btb(2048);
    Cache l1i(CacheParams{"l1i", 32, 2});
    Histogram region_len(33);
    std::unordered_map<Addr, std::uint64_t> branch_counts;

    BBRecord rec;
    std::uint64_t instrs = 0;
    std::uint64_t blocks = 0, branches = 0, conditionals = 0;
    std::uint64_t btb_misses = 0;
    std::uint64_t region_blocks = 0;
    Addr region_anchor = 0;
    bool region_open = false;
    while (instrs < instructions) {
        if (!gen->next(rec)) {
            std::fprintf(stderr,
                         "error: trace ran dry after %llu of %llu "
                         "instructions; record a longer trace\n",
                         static_cast<unsigned long long>(instrs),
                         static_cast<unsigned long long>(
                             instructions));
            return 1;
        }
        instrs += rec.numInstrs;
        ++blocks;
        branches += isBranch(rec.type);
        conditionals += rec.type == BranchType::Conditional;
        if (!btb.lookup(rec.startAddr)) {
            ++btb_misses;
            BTBEntry e;
            e.bbStart = rec.startAddr;
            e.target = rec.target;
            e.numInstrs = rec.numInstrs;
            e.type = rec.type;
            btb.insert(e);
        }
        for (Addr b = rec.firstBlock(); b <= rec.lastBlock(); ++b) {
            if (!l1i.access(b))
                l1i.fill(b, false);
            if (region_open) {
                const auto d = static_cast<std::int64_t>(b) -
                               static_cast<std::int64_t>(region_anchor);
                region_blocks = std::max<std::uint64_t>(
                    region_blocks, static_cast<std::uint64_t>(
                                       d < 0 ? 0 : d));
            }
        }
        if (isBranch(rec.type))
            ++branch_counts[rec.branchPC()];
        if (endsRegion(rec.type)) {
            if (region_open)
                region_len.sample(region_blocks);
            region_open = true;
            region_anchor = blockNumber(rec.target);
            region_blocks = 0;
        }
    }

    std::printf("dynamic: %.1f branches/KI (%.0f%% conditional), "
                "%llu basic blocks\n",
                1000.0 * branches / instrs,
                branches == 0 ? 0.0
                              : 100.0 * conditionals / branches,
                static_cast<unsigned long long>(blocks));
    std::printf("pressure: BTB MPKI %.2f | L1-I MPKI %.2f\n",
                1000.0 * btb_misses / instrs,
                1000.0 * l1i.misses() / instrs);
    std::printf("regions: median forward extent %zu blocks, p90 %zu "
                "blocks\n",
                region_len.percentileBucket(0.5),
                region_len.percentileBucket(0.9));

    // Hot-branch coverage (Fig 4 style).
    std::vector<std::uint64_t> counts;
    counts.reserve(branch_counts.size());
    std::uint64_t total = 0;
    for (const auto &[pc, count] : branch_counts) {
        counts.push_back(count);
        total += count;
    }
    std::sort(counts.begin(), counts.end(), std::greater<>());
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(counts.size(),
                                                      2048); ++i) {
        running += counts[i];
    }
    std::printf("hot set: top-2K static branches cover %.1f%% of "
                "dynamic branches (%zu sites seen)\n",
                100.0 * running / total, branch_counts.size());

    // Paper-style scheme comparison on the workload, fanned out over
    // the experiment runner.
    runner::ExperimentSet set;
    const std::size_t base_idx =
        set.addBaseline(preset, instructions / 2, instructions);
    std::vector<std::pair<std::string, std::size_t>> points;
    for (SchemeType type : {SchemeType::Boomerang,
                            SchemeType::Confluence,
                            SchemeType::Shotgun}) {
        SimConfig config = SimConfig::make(preset, type);
        config.warmupInstructions = instructions / 2;
        config.measureInstructions = instructions;
        // Observer-only probes: the comparison numbers are bitwise
        // identical with or without them, and they feed the stall
        // attribution table below.
        config.core.uarchProbes = true;
        points.emplace_back(
            schemeTypeName(type),
            set.add(preset, schemeTypeName(type), std::move(config)));
    }

    runner::RunnerOptions runner_opts;
    runner_opts.jobs = jobs;
    const auto results = runner::ExperimentRunner(runner_opts).run(set);
    const SimResult &base = results[base_idx];

    std::printf("\ndelivery schemes on '%s' (baseline IPC %.3f):\n",
                preset.name.c_str(), base.ipc);
    for (const auto &[name, index] : points) {
        const SimResult &r = results[index];
        std::printf("  %-10s speedup %.3fx | FE coverage %5.1f%% | "
                    "L1-I MPKI %.1f\n",
                    name.c_str(), speedup(r, base),
                    100.0 * stallCoverage(r, base), r.l1iMPKI);
    }

    // Cycle-exact attribution from the probes: every measured cycle
    // is active or charged to exactly one stall cause, so each row
    // sums to 100% (the conservation invariant).
    std::printf("\nstall attribution (%% of measured cycles):\n");
    std::printf("  %-10s %7s %7s %7s %7s %7s %7s %7s\n", "scheme",
                "active", "icache", "btb", "redir", "ftq", "backend",
                "pf-wait");
    for (const auto &[name, index] : points) {
        const SimResult &r = results[index];
        const obs::UarchBreakdown &u = r.uarch;
        auto pct = [&r](std::uint64_t cycles) {
            return r.cycles == 0 ? 0.0
                                 : 100.0 * static_cast<double>(cycles) /
                                       static_cast<double>(r.cycles);
        };
        std::printf("  %-10s %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% "
                    "%6.1f%% %6.1f%%%s\n",
                    name.c_str(), pct(u.activeCycles),
                    pct(u.stallICacheMiss), pct(u.stallBTBMiss),
                    pct(u.stallRedirect), pct(u.stallFTQEmpty),
                    pct(u.stallBackendPressure),
                    pct(u.stallPrefetchInFlight),
                    u.conserves(r.cycles) ? "" : "  [not conserved!]");
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
