/**
 * @file
 * The command line of bench_figures (figures.hh): run lengths
 * (--quick / --instructions / --warmup), workload filtering,
 * parallelism (--jobs) and the result-file directory (--out).
 */

#ifndef SHOTGUN_BENCH_COMMON_HH
#define SHOTGUN_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace shotgun
{
namespace bench
{

struct BenchOptions
{
    /** Instructions simulated per (workload, scheme) data point. */
    std::uint64_t measureInstructions = 5000000;

    /** Warm-up instructions before measurement starts. */
    std::uint64_t warmupInstructions = 2000000;

    /** If non-empty, run only this workload. */
    std::string onlyWorkload;

    /** Concurrent simulations; 0 means one per hardware thread. */
    unsigned jobs = 0;

    /** Result-file directory; empty means results. */
    std::string outDir;

    /** --no-out: skip JSON/CSV result files. */
    bool writeFiles = true;

    /** --no-progress: suppress the per-point progress/ETA lines. */
    bool showProgress = true;
};

/**
 * Parse --quick, --instructions N, --warmup N, --workload NAME,
 * --jobs N, --out DIR, --no-out and --no-progress into `opts`.
 *
 * Numeric values are validated strictly: a malformed or out-of-range
 * value (e.g. "--instructions 10x6" or "--jobs 0") is an error, never
 * a silent fallback to the default. On error, returns false and sets
 * `error`; `opts` is left in an unspecified state.
 */
bool tryParseOptions(int argc, char **argv, BenchOptions &opts,
                     std::string &error);

/** tryParseOptions, but prints usage and exits on error. */
BenchOptions parseOptions(int argc, char **argv);

/**
 * The workloads a bench run sweeps: `defaults` (all six presets when
 * empty), or -- when --workload was given -- the single named
 * preset, which may be a recorded trace via `trace:<path>[:name]`
 * (see trace/trace_io.hh). Every bench iterates this instead of
 * filtering allPresets() so recorded traces flow through every
 * experiment grid.
 */
std::vector<WorkloadPreset>
selectedPresets(const BenchOptions &opts,
                const std::vector<WorkloadId> &defaults = {});

/** Print the bench banner: what is being reproduced and how. */
void printBanner(const BenchOptions &opts, const char *experiment,
                 const char *paper_summary);

/** Geometric mean of a non-empty vector. */
double geomean(const std::vector<double> &values);

/** A SimConfig for (preset, scheme) using the bench run lengths. */
SimConfig configFor(const WorkloadPreset &preset, SchemeType type,
                    const BenchOptions &opts);

} // namespace bench
} // namespace shotgun

#endif // SHOTGUN_BENCH_COMMON_HH
