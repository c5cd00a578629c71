#include "figures.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <map>
#include <numeric>
#include <unordered_map>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/shotgun.hh"
#include "prefetch/factory.hh"
#include "sim/canonical.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace bench
{

namespace
{

/** Shotgun with each spatial-region prefetch mechanism (Sec 6.3). */
std::vector<Series>
regionModes(std::initializer_list<FootprintMode> modes)
{
    std::vector<Series> series;
    for (FootprintMode mode : modes) {
        series.push_back({footprintModeName(mode), footprintModeName(mode),
                          SchemeType::Shotgun, [mode](SimConfig &config) {
                              config.scheme.shotgun =
                                  ShotgunBTBConfig::forMode(mode);
                          }});
    }
    return series;
}

const std::initializer_list<FootprintMode> kAllModes = {
    FootprintMode::NoBitVector, FootprintMode::BitVector8,
    FootprintMode::BitVector32, FootprintMode::EntireRegion,
    FootprintMode::FiveBlocks};
const std::initializer_list<FootprintMode> kOverPrefetchModes = {
    FootprintMode::BitVector8, FootprintMode::EntireRegion,
    FootprintMode::FiveBlocks};

const std::size_t kBudgets[] = {512, 1024, 2048, 4096, 8192};

/** Fig 13: Boomerang at each BTB budget, then Shotgun at each. */
std::vector<Series>
budgetSeries()
{
    std::vector<Series> series;
    for (const SchemeType type :
         {SchemeType::Boomerang, SchemeType::Shotgun}) {
        for (std::size_t budget : kBudgets) {
            series.push_back(
                {schemeTypeName(type) + ("@" + std::to_string(budget)),
                 budget >= 1024 ? std::to_string(budget / 1024) + "K"
                                : std::to_string(budget),
                 type, [type, budget](SimConfig &config) {
                     if (type == SchemeType::Shotgun)
                         config.scheme.shotgun =
                             ShotgunBTBConfig::forBudgetOf(budget);
                     else
                         config.scheme.conventionalEntries = budget;
                 }});
        }
    }
    return series;
}

/** Fig 12: Shotgun at three C-BTB sizes. */
Series
cbtbSize(std::size_t entries, const char *header)
{
    return {"cbtb@" + std::to_string(entries), header, SchemeType::Shotgun,
            [entries](SimConfig &config) {
                config.scheme.shotgun.cbtbEntries = entries;
            }};
}

/**
 * Sec 2.1: N colocated workloads leave Confluence 1/N of its
 * LLC-virtualized history and index.
 */
Series
colocated(unsigned n)
{
    return {"confluence@N=" + std::to_string(n),
            "confl. N=" + std::to_string(n), SchemeType::Confluence,
            [n](SimConfig &config) {
                config.scheme.confluence.historyEntries = 65536 / n;
                config.scheme.confluence.indexEntries = 8192 / n;
            }};
}

void
metricCell(TextTable &table, Metric metric, double value)
{
    if (metric == Metric::Coverage || metric == Metric::Accuracy)
        table.percentCell(value);
    else
        table.cell(value, metric == Metric::Speedup ? 3 : 1);
}

/** Workload rows, one column per series, then the summary row. */
void
printPlain(const FigureRun &run, std::ostream &os)
{
    const Figure &figure = *run.figure;
    TextTable table(figure.title);
    table.row().cell("Workload");
    for (const Series &series : figure.series)
        table.cell(series.header);

    std::vector<std::vector<double>> columns(figure.series.size());
    for (std::size_t p = 0; p < run.presets.size(); ++p) {
        table.row().cell(run.presets[p].name);
        for (std::size_t s = 0; s < figure.series.size(); ++s) {
            const SimResult &r = run.point(p, s);
            const double value =
                figure.metric == Metric::Speedup ? speedup(r, run.base(p))
                : figure.metric == Metric::Coverage
                    ? stallCoverage(r, run.base(p))
                : figure.metric == Metric::Accuracy ? r.prefetchAccuracy
                                                    : r.avgL1DFillCycles;
            columns[s].push_back(value);
            metricCell(table, figure.metric, value);
        }
    }
    if (figure.summary != Summary::None) {
        const bool gmean = figure.summary == Summary::Gmean;
        table.row().cell(gmean ? "gmean" : "avg");
        for (const auto &column : columns) {
            metricCell(table, figure.metric,
                       gmean ? geomean(column)
                             : std::accumulate(column.begin(), column.end(),
                                               0.0) /
                                   static_cast<double>(column.size()));
        }
    }
    table.print(os);
}

void
printTable1(const FigureRun &run, const BenchOptions &, std::ostream &os)
{
    const double paper[] = {2.5, 14.5, 23.7, 14.6, 45.1, 40.2};
    TextTable table(run.figure->title);
    table.row().cell("Workload").cell("BTB MPKI (measured)")
        .cell("BTB MPKI (paper)").cell("L1-I MPKI (measured)");
    for (std::size_t p = 0; p < run.presets.size(); ++p) {
        const WorkloadPreset &preset = run.presets[p];
        const SimResult &base = run.base(p);
        table.row().cell(preset.name).cell(base.btbMPKI, 1);
        // Recorded traces are ad-hoc workloads without a Table 1 row.
        if (preset.tracePath.empty())
            table.cell(paper[static_cast<int>(preset.id)], 1);
        else
            table.cell("-");
        table.cell(base.l1iMPKI, 1);
    }
    table.print(os);
}

void
printFig13(const FigureRun &run, const BenchOptions &, std::ostream &os)
{
    const std::size_t budgets = std::size(kBudgets);
    TextTable table(run.figure->title);
    table.row().cell("Workload").cell("Scheme");
    for (std::size_t b = 0; b < budgets; ++b)
        table.cell(run.figure->series[b].header);
    for (std::size_t p = 0; p < run.presets.size(); ++p) {
        for (std::size_t half = 0; half < 2; ++half) {
            table.row().cell(run.presets[p].name)
                .cell(half == 0 ? "boomerang" : "shotgun");
            for (std::size_t b = 0; b < budgets; ++b) {
                table.cell(speedup(run.point(p, half * budgets + b),
                                   run.base(p)),
                           3);
            }
        }
    }
    table.print(os);
}

/**
 * Hand `visit` each record of the first `instructions` of the
 * workload's stream (trace seed 1); fatal() when a recorded trace
 * runs dry first.
 */
template <typename Visit>
void
walkStream(const WorkloadPreset &preset, std::uint64_t instructions,
           Visit visit)
{
    const auto gen = openTraceSource(preset, programFor(preset), 1);
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
        visit(rec);
    }
}

/**
 * Fig 3: each region access's distance in blocks from the region's
 * entry point, where a region spans two unconditional branches in
 * dynamic program order (Sec 3.1), as a CDF per workload.
 */
void
printFig3(const FigureRun &run, const BenchOptions &opts, std::ostream &os)
{
    TextTable table(run.figure->title);
    table.row().cell("Workload").cell("d=0").cell("<=1").cell("<=2")
        .cell("<=4").cell("<=6").cell("<=10").cell("<=16").cell(">16");
    for (const WorkloadPreset &preset : run.presets) {
        Histogram dist(17); // |distance| 0..16; overflow = >16
        bool region_open = false;
        Addr anchor = 0;
        walkStream(preset, opts.measureInstructions,
                   [&](const BBRecord &rec) {
            if (region_open) {
                for (Addr b = rec.firstBlock(); b <= rec.lastBlock();
                     ++b) {
                    const std::int64_t d =
                        static_cast<std::int64_t>(b) -
                        static_cast<std::int64_t>(anchor);
                    dist.sample(static_cast<std::size_t>(d < 0 ? -d : d));
                }
            }
            if (endsRegion(rec.type)) {
                region_open = true;
                anchor = blockNumber(rec.target);
            }
        });
        table.row().cell(preset.name)
            .percentCell(dist.cumulativeFraction(0))
            .percentCell(dist.cumulativeFraction(1))
            .percentCell(dist.cumulativeFraction(2))
            .percentCell(dist.cumulativeFraction(4))
            .percentCell(dist.cumulativeFraction(6))
            .percentCell(dist.cumulativeFraction(10))
            .percentCell(dist.cumulativeFraction(16))
            .percentCell(1.0 - dist.cumulativeFraction(16));
    }
    table.print(os);
}

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

/**
 * Fig 4: the share of dynamic branches the N hottest static branch
 * sites cover, all branches against unconditional ones, over twice
 * the measured length.
 */
void
printFig4(const FigureRun &run, const BenchOptions &opts, std::ostream &os)
{
    const std::vector<std::size_t> cuts = {1024, 2048, 3072, 4096,
                                           6144, 8192};
    TextTable table(run.figure->title);
    {
        auto &row = table.row().cell("Series");
        for (std::size_t cut : cuts)
            row.cell(std::to_string(cut / 1024) + "K");
    }
    for (const WorkloadPreset &preset : run.presets) {
        std::unordered_map<Addr, std::uint64_t> all_counts;
        std::unordered_map<Addr, std::uint64_t> uncond_counts;
        walkStream(preset, opts.measureInstructions * 2,
                   [&](const BBRecord &rec) {
            if (!isBranch(rec.type))
                return;
            ++all_counts[rec.branchPC()];
            if (isUnconditional(rec.type))
                ++uncond_counts[rec.branchPC()];
        });
        auto &row_all = table.row().cell(preset.name + " (all branches)");
        for (double v : coverageCurve(all_counts, cuts))
            row_all.percentCell(v);
        auto &row_uncond =
            table.row().cell(preset.name + " (unconditional)");
        for (double v : coverageCurve(uncond_counts, cuts))
            row_uncond.percentCell(v);
    }
    table.print(os);
}

/** Measure U-BTB return occupancy by replaying the retire stream. */
double
returnOccupancyFraction(const WorkloadPreset &preset,
                        std::uint64_t instructions)
{
    ShotgunBTB btbs{ShotgunBTBConfig::withoutRIB()};
    FootprintRecorder recorder(btbs);
    walkStream(preset, instructions,
               [&recorder](const BBRecord &rec) { recorder.retire(rec); });
    const auto occupancy = btbs.ubtb().occupancy();
    if (occupancy == 0)
        return 0.0;
    return static_cast<double>(btbs.ubtb().returnOccupancy()) /
           static_cast<double>(occupancy);
}

void
printRibAblation(const FigureRun &run, const BenchOptions &opts,
                 std::ostream &os)
{
    TextTable table(run.figure->title);
    table.row().cell("Workload").cell("Returns in U-BTB")
        .cell("Speedup w/ RIB").cell("Speedup w/o RIB").cell("Delta");
    for (std::size_t p = 0; p < run.presets.size(); ++p) {
        const double sp_with = speedup(run.point(p, 0), run.base(p));
        const double sp_without = speedup(run.point(p, 1), run.base(p));
        const double occupancy = returnOccupancyFraction(
            run.presets[p], opts.measureInstructions / 2);
        table.row().cell(run.presets[p].name).percentCell(occupancy)
            .cell(sp_with, 3).cell(sp_without, 3)
            .percentCell(sp_with / sp_without - 1.0, 2);
    }
    table.print(os);
}

void
printRdip(const FigureRun &run, const BenchOptions &, std::ostream &os)
{
    TextTable table(run.figure->title);
    table.row().cell("Workload").cell("RDIP").cell("Boomerang")
        .cell("Shotgun").cell("RDIP cov").cell("Shotgun cov");
    std::uint64_t rdip_bits = 0, shotgun_bits = 0;
    for (std::size_t p = 0; p < run.presets.size(); ++p) {
        const SimResult &base = run.base(p);
        const SimResult &rdip = run.point(p, 0);
        const SimResult &shot = run.point(p, 2);
        rdip_bits = rdip.schemeStorageBits;
        shotgun_bits = shot.schemeStorageBits;
        table.row().cell(run.presets[p].name).cell(speedup(rdip, base), 3)
            .cell(speedup(run.point(p, 1), base), 3)
            .cell(speedup(shot, base), 3)
            .percentCell(stallCoverage(rdip, base))
            .percentCell(stallCoverage(shot, base));
    }
    table.print(os);
    os << "\ncontrol-flow metadata storage: rdip " << rdip_bits / 8 / 1024
       << " KB (incl. 2K BTB), shotgun " << shotgun_bits / 8 / 1024
       << " KB total\n";
}

std::vector<Figure>
makeFigures()
{
    const Series confluence{"confluence", "Confluence",
                            SchemeType::Confluence};
    const Series boomerang{"boomerang", "Boomerang", SchemeType::Boomerang};
    const Series shotgun{"shotgun", "Shotgun", SchemeType::Shotgun};
    const std::vector<WorkloadId> all;

    return {
        {"table1_btb_mpki",
         "Table 1: BTB MPKI, 2K-entry BTB, no prefetching",
         "Nutch 2.5, Streaming 14.5, Apache 23.7, Zeus 14.6, "
         "Oracle 45.1, DB2 40.2",
         all, true, {}, "Table 1", Metric::Speedup, Summary::None,
         printTable1},
        {"fig1_competitive",
         "Figure 1: Confluence vs Boomerang vs Ideal speedup",
         "Boomerang >= Confluence on Nutch/Zeus; Confluence wins "
         "Oracle by ~14% and DB2 by ~9%; Ideal ~1.45-1.85",
         all, true,
         {confluence, boomerang,
          {"ideal", "Ideal", SchemeType::Ideal}},
         "Figure 1 (speedup over no-prefetch baseline)",
         Metric::Speedup, Summary::Gmean},
        {"fig3_spatial_locality",
         "Figure 3: block-access distance from region entry (CDF)",
         "~90% of intra-region accesses within 10 blocks of entry; "
         ">16-block tail largest on Oracle/DB2",
         all, false, {},
         "Figure 3 (cumulative access probability by distance)",
         Metric::Speedup, Summary::None, printFig3},
        {"fig4_branch_coverage",
         "Figure 4: dynamic coverage of the N hottest static branches",
         "Oracle: 2K all-branches ~65%, 2K unconditionals ~84%; "
         "DB2: ~75% / ~92%",
         {WorkloadId::Oracle, WorkloadId::DB2}, false, {},
         "Figure 4 (cumulative dynamic branch coverage)", Metric::Speedup,
         Summary::None, printFig4},
        {"fig6_stall_coverage", "Figure 6: front-end stall-cycle coverage",
         "Shotgun avg ~68% (+8% over Boomerang/Confluence); beats "
         "Boomerang everywhere; trails Confluence only on Oracle",
         all, true, {confluence, boomerang, shotgun},
         "Figure 6 (stall-cycle coverage vs no-prefetch)",
         Metric::Coverage, Summary::Avg},
        {"fig7_speedup", "Figure 7: speedup over no-prefetch baseline",
         "Shotgun avg ~1.32 (+5% over Boomerang/Confluence); "
         "+10% over Boomerang on DB2, +8% on Oracle",
         all, true, {confluence, boomerang, shotgun},
         "Figure 7 (speedup over no-prefetch baseline)",
         Metric::Speedup, Summary::Gmean},
        {"fig8_footprint_coverage",
         "Figure 8: coverage by region-prefetch mechanism",
         "8-bit vector ~+6% coverage over no-bit-vector; 32-bit adds "
         "~nothing; entire-region/5-blocks degrade",
         all, true, regionModes(kAllModes),
         "Figure 8 (Shotgun stall-cycle coverage)", Metric::Coverage,
         Summary::Avg},
        {"fig9_footprint_speedup",
         "Figure 9: speedup by region-prefetch mechanism",
         "8-bit ~+4% over no-bit-vector; 32-bit +0.5%; entire-region "
         "and 5-blocks degrade (worst on DB2/Streaming)",
         all, true, regionModes(kAllModes),
         "Figure 9 (Shotgun speedup over no-prefetch)", Metric::Speedup,
         Summary::Gmean},
        {"fig10_prefetch_accuracy",
         "Figure 10: prefetch accuracy by mechanism",
         "avg accuracy: 8-bit ~71%, entire-region ~56%, 5-blocks ~43%",
         all, false, regionModes(kOverPrefetchModes),
         "Figure 10 (Shotgun prefetch accuracy)", Metric::Accuracy,
         Summary::Avg},
        {"fig11_l1d_fill_latency", "Figure 11: cycles to fill an L1-D miss",
         "over-prefetching inflates fills: DB2 ~54 cycles (8-bit) -> "
         "~65 (5-blocks)",
         all, false, regionModes(kOverPrefetchModes),
         "Figure 11 (avg cycles to fill an L1-D miss)",
         Metric::FillCycles, Summary::Avg},
        {"fig12_cbtb_size", "Figure 12: Shotgun speedup vs C-BTB size",
         "1K entries gains only ~0.8% over 128; 64 entries loses ~2% "
         "(4% on Streaming/DB2)",
         all, true,
         {cbtbSize(64, "64-entry"), cbtbSize(128, "128-entry"),
          cbtbSize(1024, "1K-entry")},
         "Figure 12 (Shotgun speedup over no-prefetch)", Metric::Speedup,
         Summary::Gmean},
        {"fig13_btb_budget",
         "Figure 13: speedup vs BTB storage budget (Oracle, DB2)",
         "Shotgun wins at every equal budget; Shotgun@1K ~ "
         "Boomerang@8K on Oracle",
         {WorkloadId::Oracle, WorkloadId::DB2}, true, budgetSeries(),
         "Figure 13 (speedup over no-prefetch baseline)", Metric::Speedup,
         Summary::None, printFig13},
        {"colocation", "Colocation sensitivity (Sec 2.1 discussion)",
         "Confluence's per-workload metadata shrinks ~1/N under "
         "N-way colocation; Shotgun's in-BTB map is unaffected",
         {WorkloadId::Oracle, WorkloadId::DB2, WorkloadId::Apache}, true,
         {colocated(1), colocated(2), colocated(4),
          {"shotgun", "shotgun (any N)", SchemeType::Shotgun}},
         "Speedup under N-way colocation", Metric::Speedup,
         Summary::None},
        {"ablation_rib",
         "Ablation: dedicated RIB vs returns-in-U-BTB (Sec 4.2.1)",
         "returns would occupy ~25% of U-BTB entries; dedicating a "
         "45-bit/entry RIB wins at equal storage",
         all, true,
         {{"shotgun+rib", "", SchemeType::Shotgun},
          {"shotgun-rib", "", SchemeType::Shotgun,
           [](SimConfig &config) {
               config.scheme.shotgun = ShotgunBTBConfig::withoutRIB();
           }}},
         "RIB ablation (equal storage budgets)", Metric::Speedup,
         Summary::None, printRibAblation},
        {"discussion_rdip",
         "Discussion (Sec 4.3): RDIP vs Boomerang vs Shotgun",
         "RDIP prefetches L1-I only (~64KB metadata); Shotgun covers "
         "both L1-I and BTB at conventional-BTB cost",
         all, true,
         {{"rdip", "RDIP", SchemeType::RDIP}, boomerang, shotgun},
         "RDIP comparison (speedup / coverage / storage)", Metric::Speedup,
         Summary::None, printRdip},
    };
}

FigureRun
buildRun(const Figure &figure, const BenchOptions &opts)
{
    FigureRun run;
    run.figure = &figure;
    run.presets = selectedPresets(opts, figure.defaults);
    for (const WorkloadPreset &preset : run.presets) {
        if (figure.baseline) {
            run.set.addBaseline(preset, opts.warmupInstructions,
                                opts.measureInstructions);
        }
        for (const Series &series : figure.series) {
            SimConfig config = configFor(preset, series.scheme, opts);
            if (series.patch)
                series.patch(config);
            run.set.add(preset, series.label, std::move(config));
        }
    }
    return run;
}

} // namespace

const SimResult &
FigureRun::base(std::size_t p) const
{
    return results[p * (figure->series.size() + 1)];
}

const SimResult &
FigureRun::point(std::size_t p, std::size_t s) const
{
    const std::size_t base = figure->baseline ? 1 : 0;
    return results[p * (figure->series.size() + base) + base + s];
}

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = makeFigures();
    return table;
}

const Figure *
findFigure(const std::string &slug)
{
    for (const Figure &figure : figures()) {
        if (figure.slug == slug)
            return &figure;
    }
    return nullptr;
}

std::vector<FigureRun>
runFigures(const std::vector<const Figure *> &selected,
           const BenchOptions &opts)
{
    // The union grid holds each distinct simulation once; every
    // figure keeps, per point of its own grid, the union index of
    // the simulation with the same fingerprint.
    std::vector<FigureRun> runs;
    std::vector<runner::Experiment> grid;
    std::vector<std::vector<std::size_t>> union_index;
    std::map<std::string, std::size_t> by_fingerprint;
    for (const Figure *figure : selected) {
        runs.push_back(buildRun(*figure, opts));
        std::vector<std::size_t> &where = union_index.emplace_back();
        for (const runner::Experiment &exp : runs.back().set.experiments()) {
            const auto slot = by_fingerprint.emplace(
                configFingerprint(exp.config), grid.size());
            if (slot.second)
                grid.push_back(exp);
            where.push_back(slot.first->second);
        }
    }

    runner::RunnerOptions runner_opts;
    runner_opts.jobs = opts.jobs;
    runner_opts.progress = opts.showProgress ? &std::cerr : nullptr;
    const std::vector<SimResult> results =
        runner::ExperimentRunner(runner_opts).run(grid);
    for (std::size_t f = 0; f < runs.size(); ++f) {
        for (std::size_t index : union_index[f])
            runs[f].results.push_back(results[index]);
    }
    return runs;
}

void
printFigure(const FigureRun &run, const BenchOptions &opts,
            std::ostream &os)
{
    if (run.figure->print != nullptr)
        run.figure->print(run, opts, os);
    else
        printPlain(run, os);
}

void
writeFigure(const FigureRun &run, const BenchOptions &opts)
{
    // A trace walk simulates nothing and has no result rows.
    if (!opts.writeFiles || run.set.empty())
        return;
    runner::ResultSink sink(run.figure->slug);
    runner::appendResultRows(run.set, run.results, sink);
    const std::string base =
        (opts.outDir.empty() ? "results" : opts.outDir) + "/" +
        run.figure->slug;
    if (sink.writeFiles(base)) {
        std::fprintf(stderr, "results written to %s.json / %s.csv\n",
                     base.c_str(), base.c_str());
    }
}

} // namespace bench
} // namespace shotgun
