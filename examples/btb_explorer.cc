/**
 * @file
 * BTB-organization explorer: a design-space study over Shotgun's BTB
 * partitioning, the kind of experiment an architect adopting the
 * library would run first. For a fixed total storage budget, sweep
 * how capacity is split between the U-BTB (global control flow +
 * footprints), the C-BTB (local control flow) and the RIB, and
 * report speedup -- reproducing the paper's design argument that the
 * bulk of the budget belongs to unconditional branches.
 *
 * Usage: btb_explorer [workload] [instructions]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

#include <iostream>

using namespace shotgun;

namespace
{

const char kUsage[] = "usage: btb_explorer [workload] [instructions]\n";

int
runTool(int argc, char **argv)
{
    if (cli::handleHelpFlag(argc, argv, kUsage))
        return 0;
    const std::string workload = argc > 1 ? argv[1] : "oracle";
    std::uint64_t instructions = 2000000;
    if (argc > 3 || (argc > 2 && (!parseU64(argv[2], instructions) ||
                                  instructions == 0))) {
        std::fputs(kUsage, stderr);
        return cli::kUsageExitCode;
    }
    const std::uint64_t warmup = instructions / 2;

    const WorkloadPreset preset = presetByName(workload);
    const SimResult base = baselineFor(preset, warmup, instructions);

    struct Split
    {
        const char *label;
        std::size_t ubtb, cbtb, rib;
    };
    // Roughly equal total storage; entry sizes differ (106/70/45
    // bits), so the splits trade many small entries for fewer big
    // ones. "paper" is the Sec 5.2 configuration.
    const Split splits[] = {
        {"cond-heavy (U 384, C 1536, R 512)", 384, 1536, 512},
        {"balanced  (U 1024, C 640, R 512)", 1024, 640, 512},
        {"paper     (U 1536, C 128, R 512)", 1536, 128, 512},
        {"uncond-max (U 1792, C 64, R 128)", 1792, 64, 128},
    };

    TextTable table("Shotgun BTB partitioning on " + preset.name);
    table.row().cell("Split").cell("Storage KB").cell("Speedup")
        .cell("FE stall coverage");

    for (const Split &split : splits) {
        SimConfig config = SimConfig::make(preset, SchemeType::Shotgun);
        config.scheme.shotgun.ubtbEntries = split.ubtb;
        config.scheme.shotgun.cbtbEntries = split.cbtb;
        config.scheme.shotgun.ribEntries = split.rib;
        config.warmupInstructions = warmup;
        config.measureInstructions = instructions;
        const SimResult result = runSimulation(config);
        table.row().cell(split.label)
            .cell(result.schemeStorageBits / 8.0 / 1024.0, 2)
            .cell(speedup(result, base), 3)
            .percentCell(stallCoverage(result, base));
    }
    table.print(std::cout);
    std::printf("\nExpectation (Sec 4 of the paper): devoting the bulk "
                "of the budget to unconditional\nbranches (and their "
                "footprints) wins once the branch working set is "
                "large.\n");
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
