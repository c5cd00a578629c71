/**
 * @file
 * Quickstart: simulate one server workload with and without Shotgun
 * and print the headline numbers. This is the smallest end-to-end
 * use of the public API:
 *
 *   1. pick a workload preset (synthetic stand-ins for the paper's
 *      commercial server workloads),
 *   2. build a SimConfig for a control-flow delivery scheme,
 *   3. runSimulation() and compare against the no-prefetch baseline.
 *
 * Usage: quickstart [workload] [instructions]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/parse.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

const char kUsage[] = "usage: quickstart [workload] [instructions]\n";

int
runTool(int argc, char **argv)
{
    if (cli::handleHelpFlag(argc, argv, kUsage))
        return 0;
    const std::string workload = argc > 1 ? argv[1] : "db2";
    std::uint64_t instructions = 3000000;
    if (argc > 3 || (argc > 2 && (!parseU64(argv[2], instructions) ||
                                  instructions == 0))) {
        std::fputs(kUsage, stderr);
        return cli::kUsageExitCode;
    }
    const std::uint64_t warmup = instructions / 2;

    const WorkloadPreset preset = presetByName(workload);
    std::printf("workload: %s (synthetic; %.1f MB code footprint)\n",
                preset.name.c_str(),
                programFor(preset).codeBytes() / 1024.0 / 1024.0);

    const SimResult base = baselineFor(preset, warmup, instructions);
    std::printf("\nno-prefetch baseline:\n");
    std::printf("  IPC %.3f | BTB MPKI %.1f | L1-I MPKI %.1f | "
                "front-end stalls/KI %.0f\n",
                base.ipc, base.btbMPKI, base.l1iMPKI,
                1000.0 * base.frontEndStallCycles / base.instructions);

    SimConfig config = SimConfig::make(preset, SchemeType::Shotgun);
    config.warmupInstructions = warmup;
    config.measureInstructions = instructions;
    const SimResult shot = runSimulation(config);

    std::printf("\nshotgun (U-BTB 1.5K + C-BTB 128 + RIB 512, 8-bit "
                "footprints; %.2f KB):\n",
                shot.schemeStorageBits / 8.0 / 1024.0);
    std::printf("  IPC %.3f | L1-I MPKI %.1f | prefetch accuracy "
                "%.0f%%\n",
                shot.ipc, shot.l1iMPKI, 100.0 * shot.prefetchAccuracy);
    std::printf("\nspeedup over baseline:        %.2fx\n",
                speedup(shot, base));
    std::printf("front-end stalls covered:     %.1f%%\n",
                100.0 * stallCoverage(shot, base));
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
