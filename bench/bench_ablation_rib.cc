/**
 * @file
 * Design ablation for the Return Instruction Buffer (Sec 4.2.1).
 * The paper argues that storing returns in the U-BTB wastes more
 * than 50% of each occupied entry (no target, no footprints) and
 * that returns would occupy ~25% of U-BTB entries. This bench runs
 * Shotgun with and without the dedicated RIB at equal storage and
 * reports both the measured return occupancy and the performance
 * delta.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/shotgun.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

/** Measure U-BTB return occupancy by replaying the retire stream. */
double
returnOccupancyFraction(const WorkloadPreset &preset,
                        std::uint64_t instructions)
{
    const Program &program = programFor(preset);
    ShotgunBTB btbs{ShotgunBTBConfig::withoutRIB()};
    FootprintRecorder recorder(btbs);
    const auto gen = openTraceSource(preset, program, 1);
    BBRecord rec;
    std::uint64_t instrs = 0;
    while (instrs < instructions) {
        fatal_if(!gen->next(rec),
                 "workload '%s': trace ran dry after %llu of %llu "
                 "analysis instructions; record a longer trace",
                 preset.name.c_str(),
                 static_cast<unsigned long long>(instrs),
                 static_cast<unsigned long long>(instructions));
        instrs += rec.numInstrs;
        recorder.retire(rec);
    }
    const auto occupancy = btbs.ubtb().occupancy();
    if (occupancy == 0)
        return 0.0;
    return static_cast<double>(btbs.ubtb().returnOccupancy()) /
           static_cast<double>(occupancy);
}

int
runTool(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv);
    bench::printBanner(
        opts, "Ablation: dedicated RIB vs returns-in-U-BTB (Sec 4.2.1)",
        "returns would occupy ~25% of U-BTB entries; dedicating a "
        "45-bit/entry RIB wins at equal storage");

    struct Row
    {
        std::string name;
        WorkloadPreset preset;
        std::size_t base, withRib, withoutRib;
    };
    runner::ExperimentSet set;
    std::vector<Row> rows;
    for (const auto &preset : bench::selectedPresets(opts)) {
        Row row;
        row.name = preset.name;
        row.preset = preset;
        row.base = set.addBaseline(preset, opts.warmupInstructions,
                                   opts.measureInstructions);
        row.withRib = set.add(
            preset, "shotgun+rib",
            bench::configFor(preset, SchemeType::Shotgun, opts));
        SimConfig without =
            bench::configFor(preset, SchemeType::Shotgun, opts);
        without.scheme.shotgun = ShotgunBTBConfig::withoutRIB();
        row.withoutRib =
            set.add(preset, "shotgun-rib", std::move(without));
        rows.push_back(std::move(row));
    }
    const auto results = bench::runGrid(set, opts, "ablation_rib");

    TextTable table("RIB ablation (equal storage budgets)");
    table.row().cell("Workload").cell("Returns in U-BTB")
        .cell("Speedup w/ RIB").cell("Speedup w/o RIB").cell("Delta");

    for (const auto &row : rows) {
        const SimResult &base = results[row.base];
        const double sp_with = speedup(results[row.withRib], base);
        const double sp_without =
            speedup(results[row.withoutRib], base);
        const double occupancy = returnOccupancyFraction(
            row.preset, opts.measureInstructions / 2);

        table.row().cell(row.name).percentCell(occupancy)
            .cell(sp_with, 3).cell(sp_without, 3)
            .percentCell(sp_with / sp_without - 1.0, 2);
    }
    table.print(std::cout);
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
