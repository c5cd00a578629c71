/**
 * @file
 * Shared pieces of the benchmark program: options, the report every
 * workload fills (end-to-end metrics, per-layer metrics, exact count
 * checks, attempted/failed), statistics, cold child processes, result
 * digests and the paper's accuracy targets.
 *
 * Every timed grid runs in a child forked from a set-up process that
 * built what the grid needs but never simulated, so each timed run
 * starts with empty checkpoint, decoded-trace and result caches --
 * the library offers no way to empty its process-wide stores, and a
 * fresh process is exactly the state a user's first run sees.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using shotgun::json::Value;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Tiny run lengths for the self-test; numbers are meaningless. */
    bool quick = false;

    /** Directory holding shotgun-coord and shotgun-serve. */
    std::string binDir;

    /** Directory of the stored result digests (the benchmark's own). */
    std::string dataDir;

    /** Chrome trace written by the traced run. */
    std::string traceOut = "perfbench-trace.json";

    /** Re-record the stored digests instead of measuring. */
    bool recordDigests = false;
};

/** What one run prints: metrics, count checks and the failure tally. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** An exact count check; a failed one makes the run incorrect. */
    void check(const std::string &name, std::uint64_t got,
               std::uint64_t want);

    /** A correctness failure that is not a count (bad digest, ...). */
    void error(const std::string &what);

    void attempted(std::uint64_t n) { attempted_ += n; }
    void failed(std::uint64_t n) { failed_ += n; }

    /** Human-readable lines, then the one-line JSON result. */
    void print(const std::string &workload, bool traced) const;

  private:
    struct Entry
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Entry> metrics_;
    std::vector<std::string> checks_;
    std::vector<std::string> errors_;
    bool checksOk_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

double median(std::vector<double> values);

/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);

/** Worker threads for in-process grids: one per hardware thread. */
unsigned hostJobs();

/** Host stamp: nproc, CPU model, compiler, build type (one JSON line). */
std::string hostStamp();

/** getrusage high-water mark of this process, in MB. */
double peakRssMb();

/**
 * Run `body` in a forked child and return what it returned. A child
 * that crashes, exits non-zero or throws yields {"error": "..."}.
 * The caller must be single-threaded (no pool alive) when calling.
 */
Value runInChild(const std::function<Value()> &body);

/**
 * Median of `trials` set-up times: each trial runs `setup(trial)` in a
 * fresh child (so memoized state never makes a later trial cheaper)
 * and returns its seconds.
 */
double medianSetupSeconds(unsigned trials,
                          const std::function<void(unsigned)> &setup);

/** Warm-up and measured instructions of one grid point. */
struct Lengths
{
    std::uint64_t warmup;
    std::uint64_t measure;
};

/**
 * Point lengths of both grid workloads: the repository's own Fig 7 /
 * Table 1 quick lengths (bench --quick: 0.5M warm-up, 1M measured), or
 * tiny ones for the self-test.
 */
Lengths gridLengths(const Options &options);

/**
 * Exact identity of a canonical codec encoding (of a SimResult or a
 * StatsDelta): its FNV-1a hash as 16 hex digits.
 */
std::string digest(const Value &encoded);

/** <data-dir>/<stem>.digest, or <stem>.quick.digest for the self-test. */
std::string digestPath(const Options &options, const std::string &stem);

/** Stored digest file: lines of "<key> <digest>", '#' comments. */
std::map<std::string, std::string> readDigests(const std::string &path);
void writeDigests(const std::string &path, const std::string &header,
                  const std::map<std::string, std::string> &digests);

/** A grid workload as the timed and the traced loops drive it. */
struct GridWorkload
{
    std::string name;

    /** Points one grid attempts (what `failed` counts). */
    std::uint64_t points = 0;

    /**
     * One cold grid, run in the calling child. Its result holds at
     * least "seconds", "rss_mb", "instructions" (measured instructions
     * in delivered results), "restores", "captures", "decodes" and
     * "checkpoint_bytes"; a traced grid adds "spans".
     */
    std::function<Value(bool traced)> run;

    /** Output checks of one grid's result; returns its failed points. */
    std::function<std::uint64_t(const Value &grid, Report &report)> check;
};

/** What the timed grids did, summed over the grids. */
struct GridTally
{
    std::uint64_t grids = 0, restores = 0, captures = 0, decodes = 0;
    Value first; ///< The first timed grid's result.
};

/**
 * One untimed grid first (the host runs measurably slower for a while
 * after it was idle, and the first timed grid would pay it), then cold
 * timed grids in fresh children -- at least three, until
 * options.seconds have passed. Reports grid_s (median),
 * delivered_minstr_per_s and submits_per_s (medians of the per-grid
 * rates) and peak_rss_mb. A grid that fails counts all its points
 * failed and ends the loop.
 */
GridTally timeGrids(const Options &options, const GridWorkload &workload,
                    Report &report);

/**
 * A grid workload's share of the traced run: one traced cold grid, or
 * -- for the primary workload -- untraced and traced grids alternating
 * for options.seconds, reporting obs.tracing_overhead_pct. Every traced
 * grid is checked and its spans go to collectedSpans(). Returns the
 * last traced grid's result.
 */
Value traceGrids(const Options &options, const GridWorkload &workload,
                 Report &report, bool primary);

/** Report obs.tracing_overhead_pct from paired repetition times. */
void reportTracingOverhead(Report &report,
                           const std::vector<double> &untraced,
                           const std::vector<double> &traced);

/** Deterministic Fisher-Yates permutation of [0, n) from `seed`. */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/** Paper Table 1 BTB MPKI of the workload (2K-entry BTB, no prefetch). */
double paperBtbMpki(shotgun::WorkloadId id);

/** Paper Fig 7: Shotgun's geomean speedup over the baseline. */
constexpr double kPaperShotgunSpeedup = 1.32;

/** One workload's baseline and shotgun results, for accuracy. */
struct AccuracyPoint
{
    shotgun::WorkloadId id;
    shotgun::SimResult baseline;
    shotgun::SimResult shotgun;
};

/** Adds btb_mpki_err_pct and speedup_err_pct to `report`. */
void reportAccuracy(Report &report,
                    const std::vector<AccuracyPoint> &points);

/** Spans <-> JSON array (how children ship their spans home). */
Value spansToJson(const std::vector<shotgun::obs::SpanRecord> &spans);
std::vector<shotgun::obs::SpanRecord> spansFromJson(const Value &array);

/** Every span the run collected, written as one Chrome trace at exit. */
std::vector<shotgun::obs::SpanRecord> &collectedSpans();

/**
 * Turn span recording on for this process under one trace id and
 * install a context on the calling thread, so the library's grid and
 * simulation spans (and the benchmark's own) are recorded.
 */
class TracingScope
{
  public:
    TracingScope(std::uint64_t trace_id, const char *lane);
    ~TracingScope();

    TracingScope(const TracingScope &) = delete;
    TracingScope &operator=(const TracingScope &) = delete;

  private:
    shotgun::obs::TraceContext context_;
    shotgun::obs::ScopedTraceContext scope_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
