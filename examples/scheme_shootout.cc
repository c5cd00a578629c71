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
#include <cstring>
#include <iostream>
#include <limits>

#include "common/table.hh"
#include "runner/experiment.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

/** Strict positive count for --jobs; exits with usage on bad input. */
unsigned
parseJobsArg(const char *text)
{
    char *end = nullptr;
    const unsigned long value =
        text ? std::strtoul(text, &end, 10) : 0;
    if (text == nullptr || *text == '\0' || *end != '\0' ||
        value == 0 ||
        value > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr,
                     "--jobs: expected a positive count, got '%s'\n",
                     text ? text : "");
        std::exit(2);
    }
    return static_cast<unsigned>(value);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "oracle";
    std::uint64_t instructions = 3000000;
    unsigned jobs = 0; // all cores
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            jobs = parseJobsArg(i + 1 < argc ? argv[++i] : nullptr);
        } else if (std::strncmp(argv[i], "--", 2) == 0) {
            std::fprintf(stderr,
                         "unknown option '%s'\nusage: scheme_shootout "
                         "[workload] [instructions] [--jobs N]\n",
                         argv[i]);
            return 2;
        } else if (positional == 0) {
            workload = argv[i];
            ++positional;
        } else if (positional == 1) {
            instructions = std::strtoull(argv[i], nullptr, 10);
            ++positional;
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
