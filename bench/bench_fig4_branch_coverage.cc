/**
 * @file
 * Figure 4: contribution of the N hottest static branches to dynamic
 * branch execution for Oracle and DB2 -- all branches versus
 * unconditional branches only. Paper shape: Oracle's hottest 2K
 * static branches cover only ~65% of dynamic branches (DB2: ~75%),
 * while the hottest 2K unconditional branches cover ~84% of dynamic
 * unconditional executions (DB2: ~92%); even 8K all-branch sites stay
 * below 90% on Oracle.
 *
 * This bench analyses traces rather than timing simulations, so it
 * fans the per-workload walks out over the runner's thread pool
 * directly (one task per preset).
 */

#include <algorithm>
#include <chrono>
#include <future>
#include <iostream>
#include <unordered_map>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "runner/progress.hh"
#include "runner/thread_pool.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

/** Cumulative dynamic coverage of the top-N sites, for N in `cuts`. */
std::vector<double>
coverageCurve(const std::unordered_map<Addr, std::uint64_t> &counts,
              const std::vector<std::size_t> &cuts)
{
    std::vector<std::uint64_t> sorted;
    sorted.reserve(counts.size());
    std::uint64_t total = 0;
    for (const auto &[addr, count] : counts) {
        sorted.push_back(count);
        total += count;
    }
    std::sort(sorted.begin(), sorted.end(), std::greater<>());

    std::vector<double> result;
    std::uint64_t running = 0;
    std::size_t idx = 0;
    for (std::size_t cut : cuts) {
        while (idx < sorted.size() && idx < cut)
            running += sorted[idx++];
        result.push_back(total == 0
                             ? 0.0
                             : static_cast<double>(running) /
                                   static_cast<double>(total));
    }
    return result;
}

struct CoverageRows
{
    std::vector<double> all;
    std::vector<double> uncond;
};

CoverageRows
branchCoverage(const WorkloadPreset &preset, std::uint64_t instructions,
               const std::vector<std::size_t> &cuts)
{
    const Program &program = programFor(preset);
    const auto gen = openTraceSource(preset, program, 1);

    std::unordered_map<Addr, std::uint64_t> all_counts;
    std::unordered_map<Addr, std::uint64_t> uncond_counts;
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
        if (!isBranch(rec.type))
            continue;
        ++all_counts[rec.branchPC()];
        if (isUnconditional(rec.type))
            ++uncond_counts[rec.branchPC()];
    }
    return CoverageRows{coverageCurve(all_counts, cuts),
                        coverageCurve(uncond_counts, cuts)};
}

int
runTool(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv);
    bench::printBanner(
        opts,
        "Figure 4: dynamic coverage of the N hottest static branches",
        "Oracle: 2K all-branches ~65%, 2K unconditionals ~84%; "
        "DB2: ~75% / ~92%");

    const std::vector<std::size_t> cuts = {1024, 2048, 3072, 4096,
                                           6144, 8192};

    // Defaults to the paper's two OLTP workloads; --workload (a preset
    // or a trace:<path> spec) overrides the sweep.
    const std::vector<WorkloadPreset> presets = bench::selectedPresets(
        opts, {WorkloadId::Oracle, WorkloadId::DB2});

    // Declared before the pool: its draining destructor may still run
    // tasks that report progress.
    runner::ProgressReporter progress(
        presets.size(), opts.showProgress ? &std::cerr : nullptr);
    runner::ThreadPool pool(bench::analysisJobs(opts, presets.size()));
    std::vector<std::future<CoverageRows>> futures;
    futures.reserve(presets.size());
    for (const auto &preset : presets) {
        futures.push_back(
            pool.submit([&preset, &opts, &cuts, &progress]() {
                const auto start = std::chrono::steady_clock::now();
                CoverageRows rows = branchCoverage(
                    preset, opts.measureInstructions * 2, cuts);
                progress.completed(
                    preset.name + "/fig4",
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
                return rows;
            }));
    }

    TextTable table("Figure 4 (cumulative dynamic branch coverage)");
    {
        auto &row = table.row().cell("Series");
        for (std::size_t cut : cuts)
            row.cell(std::to_string(cut / 1024) + "K");
    }

    for (std::size_t i = 0; i < presets.size(); ++i) {
        const CoverageRows rows = futures[i].get();
        auto &row_all =
            table.row().cell(presets[i].name + " (all branches)");
        for (double v : rows.all)
            row_all.percentCell(v);
        auto &row_uncond =
            table.row().cell(presets[i].name + " (unconditional)");
        for (double v : rows.uncond)
            row_uncond.percentCell(v);
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
