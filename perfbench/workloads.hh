/**
 * @file
 * The three workloads and the traced per-layer run.
 *
 * Each workload has a `measure` entry (untraced, end-to-end metrics)
 * and a `layers` entry (traced, its share of the per-layer metrics).
 * The traced run calls every workload's `layers` entry, so one traced
 * run of any workload prints the complete per-layer table; the named
 * workload is the `primary` one, which alternates untraced and traced
 * repetitions for the run's seconds to report the tracing overhead.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

/**
 * Host-time totals the two grid workloads' traced repetitions add
 * into: the sim.phase breakdown, runner occupancy and queueing, and
 * checkpoint reuse. Reported once, after both segments ran.
 */
struct LayerTotals
{
    double decodeS = 0.0, warmupS = 0.0, restoreS = 0.0,
           measureS = 0.0;
    double busyS = 0.0;     ///< Sum of point "dispatched" spans.
    double capacityS = 0.0; ///< Sum of grid seconds x pool workers.
    std::vector<double> queueWaitS;
    double cohortWaitS = 0.0;
    std::uint64_t checkpointHits = 0, checkpointMisses = 0;
    double checkpointMb = 0.0;

    /** Fold in a traced grid child's spans and cache counters. */
    void addGrid(const Value &child, unsigned jobs);

    void report(Report &report) const;
};

void paperSweepMeasure(const Options &options, Report &report);
void paperSweepLayers(const Options &options, Report &report,
                      LayerTotals &totals, bool primary);
void paperSweepRecordDigests(const Options &options);

void traceWindowsMeasure(const Options &options, Report &report);
void traceWindowsLayers(const Options &options, Report &report,
                        LayerTotals &totals, bool primary);
void traceWindowsRecordDigests(const Options &options);

void serviceMeasure(const Options &options, Report &report);
void serviceLayers(const Options &options, Report &report,
                   bool primary);

/** Structure, codec and set-up micro-probes (workload-independent). */
void runProbes(const Options &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
