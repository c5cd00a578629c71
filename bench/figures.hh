/**
 * @file
 * The paper's results as one table of figures. Each figure names the
 * workloads it sweeps and its series -- a labelled scheme plus a
 * SimConfig patch -- and how its table prints. runFigures() builds
 * every selected figure's grid, runs their union once (one simulation
 * per distinct configFingerprint), and hands each figure the results
 * of its own grid, index-aligned, so a figure's table and result files
 * do not depend on which other figures ran beside it.
 *
 * Figs 3 and 4, the workload characterization, simulate nothing: they
 * have no series and no baseline, and their print functions walk each
 * workload's stream.
 */

#ifndef SHOTGUN_BENCH_FIGURES_HH
#define SHOTGUN_BENCH_FIGURES_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "runner/experiment.hh"

namespace shotgun
{
namespace bench
{

/** One column of a figure: a scheme, optionally reconfigured. */
struct Series
{
    std::string label;  ///< Result-row label, e.g. "cbtb@64".
    std::string header; ///< Column header of the figure's table.
    SchemeType scheme;
    std::function<void(SimConfig &)> patch = {}; ///< Empty: defaults.
};

/** What a plain figure's cells show. */
enum class Metric
{
    Speedup,     ///< Over the baseline, 3 decimals.
    Coverage,    ///< Stall-cycle coverage over the baseline, percent.
    Accuracy,    ///< Prefetch accuracy, percent.
    FillCycles,  ///< Average L1-D fill cycles, 1 decimal.
};

/** A plain figure's last row: one value per column. */
enum class Summary
{
    None,
    Gmean,
    Avg,
};

struct FigureRun;

struct Figure
{
    std::string slug;   ///< Result-file stem and command-line name.
    std::string banner; ///< What is reproduced.
    std::string paper;  ///< The paper's reference values.
    std::vector<WorkloadId> defaults; ///< Empty: all six presets.
    bool baseline = true; ///< Each workload's no-prefetch baseline.
    std::vector<Series> series;

    std::string title; ///< The table's.

    /** A plain figure is a workload x series table of `metric`. */
    Metric metric = Metric::Speedup;
    Summary summary = Summary::None;

    /** A figure with another layout prints itself. */
    void (*print)(const FigureRun &, const BenchOptions &,
                  std::ostream &) = nullptr;
};

/** One figure's grid and its results, index-aligned. */
struct FigureRun
{
    const Figure *figure = nullptr;
    std::vector<WorkloadPreset> presets;
    runner::ExperimentSet set;
    std::vector<SimResult> results;

    /** Workload p's baseline (figures with one). */
    const SimResult &base(std::size_t p) const;

    /** Workload p's point of series s. */
    const SimResult &point(std::size_t p, std::size_t s) const;
};

/** Every figure, in the paper's order. */
const std::vector<Figure> &figures();

/** The figure named `slug`, or nullptr. */
const Figure *findFigure(const std::string &slug);

/**
 * Build each figure's grid, simulate the union once through
 * ExperimentRunner (progress on stderr unless --no-progress), and
 * return each figure's run in the order given.
 */
std::vector<FigureRun>
runFigures(const std::vector<const Figure *> &selected,
           const BenchOptions &opts);

/** The figure's table (its banner is printBanner's). */
void printFigure(const FigureRun &run, const BenchOptions &opts,
                 std::ostream &os);

/**
 * Unless --no-out, write the figure's rows to <out>/<slug>.json and
 * .csv (out defaults to results/).
 */
void writeFigure(const FigureRun &run, const BenchOptions &opts);

} // namespace bench
} // namespace shotgun

#endif // SHOTGUN_BENCH_FIGURES_HH
