/**
 * @file
 * The one scheduling policy of every grid this repo runs, with no
 * threads, locks, clock or I/O. GridScheduler (a thread pool) and
 * fleet::FleetCoordinator (remote worker slots) are shells around it:
 * they serialize its calls, feed it events -- a job submitted, a
 * point prefilled from a cache, a free slot, a point completed,
 * failed or lost, a job cancelled -- and act on its decisions: run
 * this point, emit these results, the job is over.
 *
 * Across jobs the pick is stride scheduling (Waldspurger & Weihl,
 * 1995): the dispatchable job with the fewest dispatches per unit of
 * weight goes next, ties to the older (lower) job id, so equal
 * weights alternate and a weight-3 job gets three dispatches for a
 * weight-1 job's one. A job is dispatchable while it is neither
 * cancelled nor failed, has fewer points in flight than its budget
 * and has a queued point whose predecessor gate is open.
 *
 * Within a job, points dispatch in its plan's order: longest first,
 * ties in grid order. A point lost with its slot queues again at its
 * old place, ahead of every later point of its job; a completion
 * that arrives for a lost point is stale and ignored. Cancellation
 * and failure drop the job's queued points; in-flight points finish,
 * and a failed job reports its lowest-index failure.
 *
 * Results emit in strict grid order. The ready prefix is handed out
 * in runs to one emitter at a time (takeEmit), so one job's results
 * never interleave, and a job is over once nothing of it is in
 * flight or left to emit.
 */

#ifndef SHOTGUN_RUNNER_DISPATCHER_HH
#define SHOTGUN_RUNNER_DISPATCHER_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <vector>

namespace shotgun
{
namespace runner
{

class Dispatcher
{
  public:
    using JobId = std::uint64_t;

    /** One dispatch of one point; a redispatch gets a new ticket. */
    using Ticket = std::uint64_t;

    /** A plan's predecessor entry for an ungated point. */
    static constexpr std::size_t kNoPredecessor =
        static_cast<std::size_t>(-1);

    /** A job's terminal report. */
    struct Outcome
    {
        enum class Status
        {
            Ok,        ///< Every point emitted.
            Cancelled, ///< Dispatch stopped by a cancel.
            Error,     ///< A point failed; `error` holds the lowest.
        };

        Status status = Status::Ok;

        /** Points emitted (the ordered prefix). */
        std::size_t completed = 0;

        /** The lowest-index failure (Status::Error only). */
        std::exception_ptr error;
    };

    /**
     * Maps a job's dispatch order to each grid index's predecessor:
     * the one point that must complete (or fail) before it dispatches,
     * or kNoPredecessor.
     */
    using Gate = std::function<std::vector<std::size_t>(
        const std::vector<std::size_t> &order)>;

    /** How a job's points dispatch. */
    struct Plan
    {
        std::vector<std::size_t> order;       ///< Grid indices.
        std::vector<std::size_t> predecessor; ///< Empty: ungated.
    };

    /**
     * The plan of a job whose point i costs cost[i]: longest first,
     * ties in grid order, gated by `gate` when it is set. A gate that
     * is not an acyclic map of grid indices panics.
     */
    static Plan plan(const std::vector<std::uint64_t> &cost,
                     const Gate &gate = {});

    /** A point to run and the ticket its outcome comes back with. */
    struct Dispatch
    {
        JobId job = 0;
        std::size_t index = 0;
        Ticket ticket = 0;    ///< 0: nothing dispatched.
        bool first = false;   ///< The job's first dispatch.
    };

    /** Grid indices [from, to) to emit, in order. */
    struct Run
    {
        std::size_t from = 0;
        std::size_t to = 0;
        bool empty() const { return from == to; }
    };

    /**
     * Admit job `id` (ids increase with age) of plan.order.size()
     * points. `budget` caps its points in flight (0: no cap) and
     * `weight` is its share (0 counts as 1).
     */
    void submit(JobId id, Plan plan, unsigned budget,
                std::uint64_t weight);

    /** The point's result is at hand already: it emits undispatched. */
    void prefill(JobId id, std::size_t index);

    /** Whether pick() would dispatch a point now. */
    bool dispatchable() const;

    /** The next point for a free slot; a 0 ticket when none may go. */
    Dispatch pick();

    /** The point's result arrived; false for a stale ticket. */
    bool complete(Ticket ticket);

    /** The point failed, and so does its job; false when stale. */
    bool fail(Ticket ticket, std::exception_ptr error);

    /** Fail a job at a point that completed (its emission threw). */
    void fail(JobId id, std::size_t index, std::exception_ptr error);

    /** The point's slot is gone: it queues again at its old place. */
    void lose(Ticket ticket);

    /** Drop the job's queued points; in-flight ones finish. */
    void cancel(JobId id);

    /**
     * The job's next run of results to emit. The caller that gets a
     * non-empty run holds the job's emit token: it emits the run,
     * then calls again with `holding` until an empty run releases
     * the token. Callers without it get an empty run while another
     * caller holds it.
     */
    Run takeEmit(JobId id, bool holding);

    /**
     * True exactly once, when the job is over -- nothing in flight,
     * nothing left to emit -- with its outcome; the job is then
     * forgotten.
     */
    bool finish(JobId id, Outcome &outcome);

    /** Queued points of every job. */
    std::size_t queued() const;

  private:
    static constexpr std::size_t kNoFailure = static_cast<std::size_t>(-1);

    enum class Point : char
    {
        Queued,
        InFlight,
        Done,
        Failed,
    };

    struct Job
    {
        Plan plan;
        std::vector<Point> state; ///< Per grid index.
        unsigned budget = 0;
        std::uint64_t weight = 1;
        std::uint64_t served = 0; ///< Dispatches so far.
        unsigned active = 0;      ///< Points in flight.
        std::size_t queued = 0;   ///< Points still to dispatch.
        std::size_t nextDispatch = 0; ///< First queued order slot.
        std::size_t nextEmit = 0;     ///< First unemitted index.
        std::size_t errorIndex = kNoFailure; ///< Lowest failure.
        std::exception_ptr error;
        bool emitting = false;
        bool cancelled = false;

        bool stopped() const
        {
            return cancelled || errorIndex != kNoFailure;
        }

        /** Step nextDispatch past points that left the queue. */
        void advance()
        {
            while (nextDispatch < state.size() &&
                   state[plan.order[nextDispatch]] != Point::Queued)
                ++nextDispatch;
        }
    };

    struct Where
    {
        JobId job = 0;
        std::size_t index = 0;
    };

    /** Order slot of the job's next dispatchable point, or size. */
    static std::size_t nextEligible(const Job &job);
    static bool canDispatch(const Job &job);
    Job *release(Ticket ticket, Point state, Where &where);

    std::map<JobId, Job> jobs_;
    std::map<Ticket, Where> inflight_;
    Ticket nextTicket_ = 1;
};

} // namespace runner
} // namespace shotgun

#endif // SHOTGUN_RUNNER_DISPATCHER_HH
