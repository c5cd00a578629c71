/**
 * @file
 * Shared outcome logs (cpu/outcome_log.hh): the key that names a
 * stream's log and the process-wide store that hands one log to every
 * core replaying that stream -- each scheme of a grid, restored
 * checkpoints and resumed windows alike.
 *
 * The key covers exactly what a log's contents depend on: the
 * workload's canonical encoding (its program, and the data-side rates
 * that, with the seed, set the draws), the trace seed -- for a trace
 * workload the trace header instead, whose seed also seeds the data
 * side -- and window.skipInstructions, because a core built after a
 * skip starts a fresh TAGE and data draw sequence there. It leaves out
 * the scheme, the core parameters, the warmup and the measured region,
 * which is what lets the six schemes of a preset, and every window of
 * a plan, share one log. A key that missed a stream parameter cannot
 * alias outcomes silently: every conditional read checks its branch
 * against the log, and Core checks the log's data-side draws.
 */

#ifndef SHOTGUN_SIM_OUTCOME_STORE_HH
#define SHOTGUN_SIM_OUTCOME_STORE_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cpu/outcome_log.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace shotgun
{

/**
 * The outcome-log key for `config`'s stream: a fingerprint of the
 * canonical encoding of its workload, its trace seed and its window
 * skip. `trace` must be the opened trace's header for `trace:`
 * workloads (it stands in for the seed) and nullptr for generator
 * workloads.
 */
std::string outcomeKey(const SimConfig &config, const TraceInfo *trace);

/**
 * The store of shared outcome logs. It holds them weakly: a log lives
 * while a core, a parked window or a stored checkpoint of its stream
 * holds it -- every point of a warmed grid captures a checkpoint, and
 * the checkpoint store holds a six-preset, six-scheme grid's captures,
 * so that spans such a grid -- and the store keeps nothing alive
 * itself. A long-lived worker's logs are therefore bounded by what it
 * runs and what the byte-budgeted checkpoint store keeps. When that
 * store drops a stream's last capture, the log goes with it, and a
 * later point of the stream produces a fresh one with the same
 * outcomes.
 */
class OutcomeLogStore
{
  public:
    /**
     * The log of `key` if someone holds it, else a new one made for
     * the data-side draws `params` sets.
     */
    std::shared_ptr<OutcomeLog> acquire(const std::string &key,
                                        const CoreParams &params);

  private:
    std::mutex mutex_; ///< Guards logs_.
    std::map<std::string, std::weak_ptr<OutcomeLog>> logs_;
};

/** The process-wide store every simulation shares. */
OutcomeLogStore &outcomeLogs();

} // namespace shotgun

#endif // SHOTGUN_SIM_OUTCOME_STORE_HH
