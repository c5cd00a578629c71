/**
 * @file
 * Scheme shootout: run every control-flow delivery mechanism in the
 * library (baseline, FDIP, Boomerang, Confluence, RDIP, Shotgun,
 * ideal) on one workload and print a side-by-side comparison --
 * speedup, stall coverage, L1-I pressure, prefetch accuracy and
 * metadata storage. The quickest way to see the paper's entire
 * landscape on a single workload. All seven simulations are declared
 * as one grid and executed concurrently by the experiment runner.
 *
 * Usage: scheme_shootout [workload] [instructions] [--jobs N]
 *        (workload may be a preset name or trace:<path>[:name])
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "common/cli.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "runner/experiment.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

const char kUsage[] =
    "usage: scheme_shootout [workload] [instructions] [--jobs N]\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "scheme_shootout: %s\n%s", message.c_str(),
                 kUsage);
    std::exit(cli::kUsageExitCode);
}

} // namespace

int
main(int argc, char **argv)
{
    if (cli::handleHelpFlag(argc, argv, kUsage))
        return 0;
    std::string workload = "oracle";
    std::uint64_t instructions = 3000000;
    unsigned jobs = 0; // all cores
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs") {
            std::uint64_t value = 0;
            if (i + 1 >= argc || !parseU64(argv[++i], value) ||
                value == 0 || value > std::numeric_limits<unsigned>::max())
                usageError("--jobs: expected a positive count");
            jobs = static_cast<unsigned>(value);
        } else if (arg.rfind("--", 0) == 0) {
            usageError("unknown option '" + arg + "'");
        } else if (positional == 0) {
            workload = arg;
            ++positional;
        } else if (positional == 1) {
            if (!parseU64(argv[i], instructions) || instructions == 0)
                usageError("expected a nonzero instruction count, got '" +
                           arg + "'");
            ++positional;
        } else {
            usageError("unexpected argument '" + arg + "'");
        }
    }
    const std::uint64_t warmup = instructions / 2;

    const WorkloadPreset preset = presetByName(workload);

    const SchemeType types[] = {SchemeType::FDIP, SchemeType::Boomerang,
                                SchemeType::RDIP,
                                SchemeType::Confluence,
                                SchemeType::Shotgun, SchemeType::Ideal};

    runner::ExperimentSet set;
    const std::size_t base_idx =
        set.addBaseline(preset, warmup, instructions);
    std::vector<std::size_t> points;
    for (SchemeType type : types) {
        SimConfig config = SimConfig::make(preset, type);
        config.warmupInstructions = warmup;
        config.measureInstructions = instructions;
        points.push_back(
            set.add(preset, schemeTypeName(type), std::move(config)));
    }

    runner::RunnerOptions runner_opts;
    runner_opts.jobs = jobs;
    runner_opts.progress = &std::cerr;
    const auto results = fatalOnTraceError(
        [&]() { return runner::ExperimentRunner(runner_opts).run(set); });
    const SimResult &base = results[base_idx];

    TextTable table("control-flow delivery on " + preset.name);
    table.row().cell("Scheme").cell("Speedup").cell("FE coverage")
        .cell("L1-I MPKI").cell("BTB MPKI").cell("PF accuracy")
        .cell("Storage KB");

    table.row().cell("baseline").cell(1.0, 3).percentCell(0.0)
        .cell(base.l1iMPKI, 1).cell(base.btbMPKI, 1).cell("-")
        .cell(base.schemeStorageBits / 8.0 / 1024.0, 1);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const SimResult &r = results[points[i]];
        table.row().cell(schemeTypeName(types[i]))
            .cell(speedup(r, base), 3)
            .percentCell(stallCoverage(r, base))
            .cell(r.l1iMPKI, 1).cell(r.btbMPKI, 1)
            .percentCell(r.prefetchAccuracy)
            .cell(r.schemeStorageBits / 8.0 / 1024.0, 1);
    }
    table.print(std::cout);
    std::cout << "\nNote: 'Storage KB' counts control-flow metadata "
                 "(BTBs + history tables);\nConfluence's history is "
                 "LLC-virtualized in the paper but still displaces "
                 "LLC capacity.\n";
    return 0;
}
