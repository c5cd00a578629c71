/**
 * @file
 * Work-conserving multi-grid scheduler: one fixed pool of worker
 * threads executing any number of concurrently admitted experiment
 * grids ("jobs"). It is the thread-pool shell around the one
 * scheduling policy (runner/dispatcher.hh): dispatch picks one grid
 * point at a time across jobs by weighted fair share, so every
 * admitted job makes progress while a long sweep runs -- no job owns
 * the pool. Each job declares a worker budget capping how many pool
 * threads may simulate its points at once; budgets above the pool
 * size (or 0) mean "whole pool", and unused budget is always
 * available to other jobs. Within one job, points dispatch in grid
 * order, or longest-first when the job installs a costOf hook;
 * neither weights nor cost ordering change what is *emitted*:
 * onResult order is strict grid order regardless.
 *
 * Determinism: simulations are pure functions of their config, and
 * each job's results are emitted strictly in grid order (index 0,
 * 1, 2, ...) no matter which worker finished which point when. A
 * job therefore observes exactly the results a serial in-process
 * run of its grid yields, independent of what else the pool is
 * chewing on -- the property the simulation service's byte-identical
 * contract rests on.
 *
 * Cancellation and failure stop *dispatch* of the job's remaining
 * points; in-flight points finish (a simulation cannot be torn down
 * midway), then the job's terminal outcome is reported once via
 * onDone. Other jobs are unaffected.
 */

#ifndef SHOTGUN_RUNNER_GRID_SCHEDULER_HH
#define SHOTGUN_RUNNER_GRID_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "runner/dispatcher.hh"
#include "runner/experiment.hh"

namespace shotgun
{
namespace runner
{

/** Default worker count: one per hardware thread (at least 1). */
unsigned hardwareJobs();

class GridScheduler
{
  public:
    /** JobHooks::predecessors' entry for an ungated point. */
    static constexpr std::size_t kNoPredecessor =
        Dispatcher::kNoPredecessor;

    struct Options
    {
        // Explicit constructor instead of member initializers: a
        // default argument of `Options()` below would otherwise trip
        // GCC's enclosing-class NSDMI restriction.
        Options(unsigned workers_ = 0) : workers(workers_) {}

        /** Pool worker threads; 0 means one per hardware thread. */
        unsigned workers;
    };

    /** A job's terminal report, delivered exactly once via onDone. */
    using Outcome = Dispatcher::Outcome;

    /**
     * Per-point tracing payload: the phase timing breakdown and the
     * spans recorded while the point simulated. Only produced for
     * traced jobs (a TraceContext was installed on the submitting
     * thread); untraced jobs never allocate one.
     */
    struct PointObservation
    {
        obs::PointTiming timing;
        std::vector<obs::SpanRecord> spans;
    };

    /**
     * Per-job callbacks. `simulate` is required and runs on pool
     * worker threads (thread-safe w.r.t. other jobs and other points
     * of the same job, up to the job's budget). The others are
     * optional: `onStart` fires once when the job's first point is
     * dispatched; `onResult` fires in strict grid order from worker
     * threads (never two emissions of one job concurrently);
     * `onDone` fires exactly once after the last in-flight point of
     * a finished/cancelled/failed job completed.
     *
     * An exception thrown by onStart, simulate or onResult fails
     * the job (Outcome::Status::Error carries it) and never escapes
     * a worker thread; an exception from onDone is swallowed.
     */
    struct JobHooks
    {
        std::function<SimResult(std::size_t index, const Experiment &)>
            simulate;
        std::function<void()> onStart;
        std::function<void(std::size_t index, const Experiment &,
                           const SimResult &)>
            onResult;
        std::function<void(const Outcome &)> onDone;

        /**
         * Optional tracing tap: for a *traced* job (the submitting
         * thread had a TraceContext installed) this fires right
         * before the point's onResult, on the same emitter thread
         * and in the same strict grid order, carrying the point's
         * phase timing and recorded spans. Never called for
         * untraced jobs, so installing it costs nothing by default.
         * Exceptions fail the job exactly like onResult's.
         */
        std::function<void(std::size_t index,
                           const PointObservation &)>
            onObservation;

        /**
         * Optional relative cost of a grid point (e.g. its simulated
         * instruction count). When set, the job's points are
         * *dispatched* in descending cost order (ties keep grid
         * order) so the longest work starts first; emission order is
         * unaffected. Called once per point at submit time, on the
         * submitting thread.
         */
        std::function<std::uint64_t(std::size_t index,
                                    const Experiment &)>
            costOf;

        /**
         * Optional predecessor gate: called once at submit time, on
         * the submitting thread, with the grid and its dispatch order
         * (grid indices, see costOf). It returns, per grid index, the
         * one point of this job that must *complete* before that
         * point may dispatch, or kNoPredecessor. The gate must be
         * acyclic (a cycle panics at submit). A predecessor that
         * failed completes too, so a gate can never hold a job
         * forever; cancellation stops dispatch regardless of gates.
         * Ungated points dispatch freely in parallel, and emission
         * order stays strict grid order, so the gate changes the
         * wall-clock shape of a run but never its results.
         */
        std::function<std::vector<std::size_t>(
            const std::vector<Experiment> &grid,
            const std::vector<std::size_t> &order)>
            predecessors;
    };

    explicit GridScheduler(Options options = Options());

    /** Cancels every job, then joins the pool (onDone still fires). */
    ~GridScheduler();

    GridScheduler(const GridScheduler &) = delete;
    GridScheduler &operator=(const GridScheduler &) = delete;

    /** Pool size. */
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Admit a job and return its id immediately; execution starts as
     * soon as a pool thread is free. `budget` caps the job's
     * concurrent points (0 or anything >= the pool size means the
     * whole pool). An empty grid completes immediately with Ok.
     * `weight` is the job's fair-share weight against other admitted
     * jobs (see the header comment; 0 is clamped to 1; the overload
     * without it submits at weight 1).
     */
    std::uint64_t submit(std::vector<Experiment> grid, unsigned budget,
                         JobHooks hooks);
    std::uint64_t submit(std::vector<Experiment> grid, unsigned budget,
                         std::uint64_t weight, JobHooks hooks);

    /**
     * Stop dispatching a job's remaining points. In-flight points
     * finish; onDone then reports Cancelled -- or Ok, truthfully, if
     * every point had already been emitted. Unknown/finished ids are
     * ignored.
     */
    void cancel(std::uint64_t job);

    /** cancel() every admitted job. */
    void cancelAll();

    /** Block until no job is admitted or finalizing. */
    void waitIdle();

  private:
    struct Job;
    using Finished =
        std::vector<std::pair<std::shared_ptr<Job>, Outcome>>;

    void workerLoop(unsigned worker_index);

    /** Emit the job's ready results; called and returns locked. */
    void emit(std::unique_lock<std::mutex> &lock, Dispatcher::JobId id,
              Job &job);

    /** Move a job that is over into `finished`. Lock held. */
    void reapLocked(Dispatcher::JobId id, Finished &finished);
    void deliverOutcomes(Finished finished);

    mutable std::mutex mutex_; ///< dispatcher_, jobs_ and the rest.
    std::condition_variable workCv_;
    std::condition_variable idleCv_;
    Dispatcher dispatcher_;
    std::map<Dispatcher::JobId, std::shared_ptr<Job>> jobs_;
    Dispatcher::JobId nextId_ = 1;
    std::size_t finalizing_ = 0; ///< Outcomes being delivered.
    bool stopping_ = false;

    std::vector<std::thread> threads_;
};

} // namespace runner
} // namespace shotgun

#endif // SHOTGUN_RUNNER_GRID_SCHEDULER_HH
