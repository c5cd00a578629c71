/**
 * @file
 * Trace recording and replay: capture a workload's dynamic basic
 * block stream into a binary trace file, then feed the file back
 * through the simulator and verify the run is bit-identical to live
 * generation. Downstream users can convert traces from other
 * simulators into this format (see trace/trace_io.hh) and drive the
 * whole harness from them; the full-featured CLI is `shotgun-trace`.
 *
 * Usage: trace_tools [workload] [basic_blocks] [path]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/parse.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

int
runTool(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "apache";
    std::uint64_t num_bbs = 500000;
    if (argc > 4 ||
        (argc > 2 && (!parseU64(argv[2], num_bbs) || num_bbs == 0))) {
        std::fputs("usage: trace_tools [workload] [basic_blocks] [path]\n",
                   stderr);
        return cli::kUsageExitCode;
    }
    const std::string path =
        argc > 3 ? argv[3] : "/tmp/shotgun_example_trace.bin";

    const WorkloadPreset preset = presetByName(workload);
    const Program &program = programFor(preset);

    // Record. The source may itself be a recorded trace when the
    // workload is a trace:<path> spec -- that just trims it, and the
    // trimmed file must keep the original recording seed so replays
    // still reproduce the run it was captured from.
    const std::uint64_t seed =
        preset.tracePath.empty()
            ? 1
            : readTraceInfo(preset.tracePath).traceSeed;
    const auto recorder = openTraceSource(preset, program, seed);
    const std::uint64_t written =
        recordTrace(*recorder, preset, seed, path, num_bbs);
    const TraceInfo info = readTraceInfo(path);
    std::printf("recorded %llu basic blocks (%llu instructions) to %s\n",
                static_cast<unsigned long long>(written),
                static_cast<unsigned long long>(info.instructions),
                path.c_str());

    // Replay through the full core with Shotgun, against live
    // generation with the same seed.
    auto run = [&](TraceSource &source) {
        CoreParams core_params;
        core_params.loadFrac = preset.loadFrac;
        core_params.l1dMissRate = preset.l1dMissRate;
        core_params.llcDataMissFrac = preset.llcDataMissFrac;
        HierarchyParams hier;
        hier.mesh.backgroundLoad = preset.backgroundLoad;
        SchemeConfig scheme;
        scheme.type = SchemeType::Shotgun;
        Core core(program, source, core_params, hier, scheme);
        core.run(info.instructions - 64);
        return core;
    };

    const auto live = openTraceSource(preset, program, seed);
    TraceFileSource replay(path);

    Core live_core = run(*live);
    Core replay_core = run(replay);

    std::printf("live   : %llu cycles, IPC %.4f\n",
                static_cast<unsigned long long>(live_core.cycles()),
                live_core.ipc());
    std::printf("replay : %llu cycles, IPC %.4f\n",
                static_cast<unsigned long long>(replay_core.cycles()),
                replay_core.ipc());
    if (live_core.cycles() == replay_core.cycles()) {
        std::printf("OK: file replay is bit-identical to live "
                    "generation\n");
        return 0;
    }
    std::printf("MISMATCH: replay diverged from live generation\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // A trace the run cannot use ends the tool: exit 1 with its
    // message (trace/trace_io.hh).
    return fatalOnTraceError([&]() { return runTool(argc, argv); });
}
