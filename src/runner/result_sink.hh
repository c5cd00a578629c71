/**
 * @file
 * Structured result collection for experiment sweeps. Every completed
 * (workload, scheme-variant) data point is recorded as a ResultRow;
 * the sink renders the whole sweep as a console table and writes
 * machine-readable JSON and CSV files for downstream plotting.
 *
 * Rows are appended under a mutex so worker threads may stream results
 * directly, but the experiment runner adds them in grid order, so file
 * output is byte-identical regardless of --jobs.
 */

#ifndef SHOTGUN_RUNNER_RESULT_SINK_HH
#define SHOTGUN_RUNNER_RESULT_SINK_HH

#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/simulator.hh"

namespace shotgun
{
namespace runner
{

/** One data point of a sweep, plus baseline-relative metrics. */
struct ResultRow
{
    std::string workload;
    std::string label; ///< Scheme/variant name, e.g. "shotgun@1K".
    SimResult result;

    /** Derived vs the workload's no-prefetch baseline, when known. */
    bool hasBaseline = false;
    double speedup = 0.0;
    double stallCoverage = 0.0;

    /**
     * Optional per-point phase timing from a traced run, rendered in
     * the JSON only (a "timing" object, milliseconds) and never in
     * the CSV -- wall-clock numbers are nondeterministic, and the
     * CSV is what the byte-comparison invariants diff.
     */
    bool hasTiming = false;
    obs::PointTiming timing;
};

class ResultSink
{
  public:
    /** @param experiment sweep name, e.g. "fig7_speedup". */
    explicit ResultSink(std::string experiment);

    void add(ResultRow row);

    std::size_t size() const;
    std::vector<ResultRow> rows() const;

    /** Generic console table of every recorded row. */
    void printTable(std::ostream &os) const;

    /** Serialize all rows. */
    void writeJson(std::ostream &os) const;
    void writeCsv(std::ostream &os) const;

    /**
     * Write `<base>.json` and `<base>.csv`, creating the parent
     * directory if needed. Returns false (with a warn()) when a file
     * cannot be opened.
     */
    bool writeFiles(const std::string &base) const;

  private:
    const std::string experiment_;
    mutable std::mutex mutex_;
    std::vector<ResultRow> rows_;
};

} // namespace runner
} // namespace shotgun

#endif // SHOTGUN_RUNNER_RESULT_SINK_HH
