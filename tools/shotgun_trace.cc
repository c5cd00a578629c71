/**
 * @file
 * shotgun-trace: record, inspect and replay binary control-flow
 * traces (see trace/trace_io.hh for the format).
 *
 *   shotgun-trace record <workload> <file> [--instructions N]
 *                 [--warmup N] [--slack N] [--blocks N] [--seed N]
 *   shotgun-trace info <file>
 *   shotgun-trace replay <file> [--scheme NAME] [--instructions N]
 *                 [--warmup N] [--name NAME]
 *
 * `record` captures warm-up + measured + slack instructions so a
 * later replay with the same run lengths is bitwise-identical to the
 * live-generator run (the decoupled BPU reads ahead of retirement,
 * hence the slack). `replay` runs one delivery scheme over the file
 * through the exact runSimulation() path the benches use; the same
 * file can be swept through every bench with
 * `--workload trace:<file>[:name]`.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

const char *kUsage =
    "usage:\n"
    "  shotgun-trace record <workload> <file> [--instructions N]\n"
    "                [--warmup N] [--slack N] [--blocks N] [--seed N]\n"
    "  shotgun-trace info <file>\n"
    "  shotgun-trace replay <file> [--scheme NAME] [--instructions N]\n"
    "                [--warmup N] [--name NAME]\n"
    "\n"
    "record: capture a workload's dynamic basic-block stream. The\n"
    "  workload is a preset name (nutch, streaming, apache, zeus,\n"
    "  oracle, db2) or an existing trace:<path>[:name] spec. By\n"
    "  default records warm-up + measured + slack instructions\n"
    "  (defaults 2000000 + 5000000 + 100000) so replays of the same\n"
    "  run lengths reproduce the live run bit for bit; --blocks N\n"
    "  records exactly N basic blocks instead.\n"
    "info: print a trace file's header.\n"
    "replay: run one scheme (default shotgun; baseline, fdip,\n"
    "  boomerang, confluence, rdip, ideal) over a recorded trace and\n"
    "  print the resulting metrics.\n";

[[noreturn]] void
usageError(const char *message)
{
    std::fprintf(stderr, "shotgun-trace: %s\n%s", message, kUsage);
    std::exit(2);
}

std::uint64_t
parseU64Arg(const char *flag, const char *text)
{
    std::uint64_t value = 0;
    if (!parseU64(text, value)) {
        usageError((std::string(flag) +
                    ": expected a decimal count, got '" +
                    (text ? text : "") + "'")
                       .c_str());
    }
    return value;
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 2)
        usageError("record needs <workload> and <file>");
    const std::string workload = argv[0];
    const std::string path = argv[1];

    std::uint64_t measure = 5000000, warmup = 2000000;
    std::uint64_t slack = 100000, blocks = 0, seed = 1;
    for (int i = 2; i < argc; ++i) {
        auto next = [&]() {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (std::strcmp(argv[i], "--instructions") == 0)
            measure = parseU64Arg("--instructions", next());
        else if (std::strcmp(argv[i], "--warmup") == 0)
            warmup = parseU64Arg("--warmup", next());
        else if (std::strcmp(argv[i], "--slack") == 0)
            slack = parseU64Arg("--slack", next());
        else if (std::strcmp(argv[i], "--blocks") == 0)
            blocks = parseU64Arg("--blocks", next());
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = parseU64Arg("--seed", next());
        else
            usageError((std::string("unknown record option '") +
                        argv[i] + "'")
                           .c_str());
    }

    const WorkloadPreset preset = presetByName(workload);
    const Program &program = programFor(preset);
    if (!preset.tracePath.empty()) {
        // Writing over the trace being read would truncate it mid-read
        // and destroy the original recording.
        std::error_code ec;
        if (std::filesystem::weakly_canonical(path, ec) ==
            std::filesystem::weakly_canonical(preset.tracePath, ec)) {
            usageError(("record: destination '" + path +
                        "' is the trace being read; record to a "
                        "different file")
                           .c_str());
        }
        // Re-recording keeps the source's seed so the data-side model
        // of downstream replays still matches the original run.
        seed = readTraceInfo(preset.tracePath).traceSeed;
    }

    const auto source = openTraceSource(preset, program, seed);
    std::uint64_t written;
    if (blocks > 0) {
        written = recordTrace(*source, preset, seed, path, blocks);
    } else {
        written = recordTraceInstructions(*source, preset, seed, path,
                                          warmup + measure + slack);
    }
    const TraceInfo info = readTraceInfo(path);
    std::printf("recorded %" PRIu64 " basic blocks (%" PRIu64
                " instructions) of '%s' (seed %" PRIu64 ") to %s\n",
                written, info.instructions, preset.name.c_str(), seed,
                path.c_str());
    std::printf("replay it with: --workload trace:%s  (benches), or\n"
                "  shotgun-trace replay %s --scheme shotgun\n",
                path.c_str(), path.c_str());
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 1)
        usageError("info needs <file>");
    const TraceInfo info = readTraceInfo(argv[0]);
    const ProgramParams &g = info.preset.program;
    std::printf("trace file     : %s\n", argv[0]);
    std::printf("format version : %u (little-endian)\n", kTraceVersion);
    std::printf("workload       : %s\n", info.preset.name.c_str());
    std::printf("records        : %" PRIu64 " basic blocks\n",
                info.records);
    std::printf("instructions   : %" PRIu64 "\n", info.instructions);
    std::printf("generator seed : %" PRIu64 "\n", info.traceSeed);
    std::printf("program        : '%s', %u app + %u OS functions, "
                "zipf %.4f, seed 0x%" PRIx64 "\n",
                g.name.c_str(), g.numFuncs, g.numOsFuncs, g.zipfAlpha,
                g.seed);
    std::printf("data side      : loadFrac %.3f, l1dMissRate %.3f, "
                "llcDataMissFrac %.3f, backgroundLoad %.2f\n",
                info.preset.loadFrac, info.preset.l1dMissRate,
                info.preset.llcDataMissFrac,
                info.preset.backgroundLoad);
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 1)
        usageError("replay needs <file>");
    const std::string path = argv[0];

    std::string scheme = "shotgun", name;
    std::uint64_t measure = 5000000, warmup = 2000000;
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (std::strcmp(argv[i], "--scheme") == 0) {
            const char *value = next();
            if (value == nullptr)
                usageError("--scheme: expected a scheme name");
            scheme = value;
        } else if (std::strcmp(argv[i], "--instructions") == 0) {
            measure = parseU64Arg("--instructions", next());
        } else if (std::strcmp(argv[i], "--warmup") == 0) {
            warmup = parseU64Arg("--warmup", next());
        } else if (std::strcmp(argv[i], "--name") == 0) {
            const char *value = next();
            if (value == nullptr)
                usageError("--name: expected a workload name");
            name = value;
        } else {
            usageError((std::string("unknown replay option '") +
                        argv[i] + "'")
                           .c_str());
        }
    }

    WorkloadPreset preset =
        presetByName("trace:" + path + (name.empty() ? "" : ":" + name));
    SimConfig config =
        SimConfig::make(preset, schemeTypeByName(scheme));
    config.warmupInstructions = warmup;
    config.measureInstructions = measure;
    const SimResult result = runSimulation(config);

    TextTable table("replay of " + path);
    table.row().cell("Workload").cell("Scheme").cell("IPC")
        .cell("Cycles").cell("L1-I MPKI").cell("BTB MPKI")
        .cell("Mispred/KI").cell("PF acc");
    table.row().cell(result.workload).cell(result.scheme)
        .cell(result.ipc, 3)
        .cell(static_cast<double>(result.cycles), 0)
        .cell(result.l1iMPKI, 1).cell(result.btbMPKI, 1)
        .cell(result.mispredictsPerKI, 1)
        .percentCell(result.prefetchAccuracy);
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int exit_code = 0;
    if (cli::handleStandardFlags(argc, argv, "shotgun-trace", kUsage,
                                 exit_code))
        return exit_code;
    if (argc < 2)
        usageError("expected a subcommand");
    const std::string command = argv[1];
    // Every subcommand reads traces: one that cannot be used ends the
    // tool with exit 1 and its message.
    return fatalOnTraceError([&]() {
        if (command == "record")
            return cmdRecord(argc - 2, argv + 2);
        if (command == "info")
            return cmdInfo(argc - 2, argv + 2);
        if (command == "replay")
            return cmdReplay(argc - 2, argv + 2);
        usageError((std::string("unknown subcommand '") + command + "'")
                       .c_str());
    });
}
