/**
 * @file
 * The scheduling policy on its own: runner::Dispatcher driven by
 * explicit events, with no threads, sockets or sleeps. Each test plays
 * the part of a shell -- GridScheduler's pool or the fleet
 * coordinator's slots -- and checks the decisions that come back:
 * which point goes next, which results emit, and when a job is over.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/dispatcher.hh"

namespace shotgun
{
namespace runner
{
namespace
{

using Status = Dispatcher::Outcome::Status;
constexpr std::size_t kNone = Dispatcher::kNoPredecessor;

/** The plan of `n` equal-cost points: grid order. */
Dispatcher::Plan
gridOrder(std::size_t n)
{
    return Dispatcher::plan(std::vector<std::uint64_t>(n, 0));
}

/** A plan whose gate is `predecessor`, in grid order. */
Dispatcher::Plan
gated(std::vector<std::size_t> predecessor)
{
    return Dispatcher::plan(
        std::vector<std::uint64_t>(predecessor.size(), 0),
        [&predecessor](const std::vector<std::size_t> &) {
            return predecessor;
        });
}

/** Emit everything ready, as a shell's emitter would. */
std::vector<std::size_t>
emitReady(Dispatcher &d, Dispatcher::JobId job)
{
    std::vector<std::size_t> emitted;
    for (bool holding = false;;) {
        const Dispatcher::Run run = d.takeEmit(job, holding);
        if (run.empty())
            return emitted;
        holding = true;
        for (std::size_t i = run.from; i < run.to; ++i)
            emitted.push_back(i);
    }
}

std::string
errorMessage(const Dispatcher::Outcome &outcome)
{
    try {
        std::rethrow_exception(outcome.error);
    } catch (const std::exception &e) {
        return e.what();
    }
}

TEST(DispatcherTest, WeightsSplitDispatchesAndEqualWeightsAlternate)
{
    Dispatcher d;
    d.submit(1, gridOrder(12), 0, 1);
    d.submit(2, gridOrder(12), 0, 3);
    std::string picks;
    for (int k = 0; k < 8; ++k)
        picks += d.pick().job == 1 ? 'a' : 'b';
    EXPECT_EQ(picks, "abbbabbb");

    Dispatcher even;
    even.submit(1, gridOrder(4), 0, 2);
    even.submit(2, gridOrder(4), 0, 2);
    picks.clear();
    for (int k = 0; k < 6; ++k)
        picks += even.pick().job == 1 ? 'a' : 'b';
    EXPECT_EQ(picks, "ababab");
}

TEST(DispatcherTest, BudgetCapsPointsInFlight)
{
    Dispatcher d;
    d.submit(1, gridOrder(5), 2, 1);
    const Dispatcher::Dispatch first = d.pick();
    EXPECT_TRUE(first.first);
    EXPECT_FALSE(d.pick().first);
    EXPECT_FALSE(d.dispatchable());
    EXPECT_EQ(d.pick().ticket, 0u);
    EXPECT_EQ(d.queued(), 3u);

    EXPECT_TRUE(d.complete(first.ticket));
    EXPECT_TRUE(d.dispatchable());
    EXPECT_EQ(d.pick().index, 2u);
    EXPECT_EQ(d.pick().ticket, 0u);
}

TEST(DispatcherTest, LongestFirstOrderIsStable)
{
    const Dispatcher::Plan plan = Dispatcher::plan({1, 5, 3, 5, 1, 3});
    EXPECT_EQ(plan.order, (std::vector<std::size_t>{1, 3, 2, 5, 0, 4}));
    EXPECT_TRUE(plan.predecessor.empty());

    Dispatcher d;
    d.submit(7, plan, 0, 1);
    std::vector<std::size_t> picked;
    for (Dispatcher::Dispatch p = d.pick(); p.ticket != 0; p = d.pick())
        picked.push_back(p.index);
    EXPECT_EQ(picked, plan.order);
}

TEST(DispatcherTest, GateHoldsAPointUntilItsPredecessorCompletes)
{
    // Two chains: 0 -> 1 and 2 -> 3.
    Dispatcher d;
    d.submit(1, gated({kNone, 0, kNone, 2}), 0, 1);
    const Dispatcher::Dispatch p0 = d.pick();
    const Dispatcher::Dispatch p2 = d.pick();
    EXPECT_EQ(p0.index, 0u);
    EXPECT_EQ(p2.index, 2u); // 1 is gated; the free point goes.
    EXPECT_FALSE(d.dispatchable());

    EXPECT_TRUE(d.complete(p2.ticket));
    EXPECT_EQ(d.pick().index, 3u);
    EXPECT_TRUE(d.complete(p0.ticket));
    EXPECT_EQ(d.pick().index, 1u);
}

TEST(DispatcherTest, FailedPredecessorEndsTheJobInsteadOfHoldingIt)
{
    Dispatcher d;
    d.submit(1, gated({kNone, 0, 1}), 0, 1);
    const Dispatcher::Dispatch p0 = d.pick();
    EXPECT_TRUE(d.complete(p0.ticket));
    const Dispatcher::Dispatch p1 = d.pick();
    EXPECT_EQ(p1.index, 1u);
    EXPECT_TRUE(
        d.fail(p1.ticket, std::make_exception_ptr(std::runtime_error("1"))));
    EXPECT_EQ(d.pick().ticket, 0u);
    EXPECT_EQ(d.queued(), 0u);

    EXPECT_EQ(emitReady(d, 1), (std::vector<std::size_t>{0}));
    Dispatcher::Outcome outcome;
    ASSERT_TRUE(d.finish(1, outcome));
    EXPECT_EQ(outcome.status, Status::Error);
    EXPECT_EQ(outcome.completed, 1u);
    EXPECT_EQ(errorMessage(outcome), "1");
}

TEST(DispatcherTest, FailedJobReportsItsLowestIndexFailure)
{
    Dispatcher d;
    d.submit(1, gridOrder(4), 0, 1);
    std::vector<Dispatcher::Dispatch> p;
    for (int k = 0; k < 4; ++k)
        p.push_back(d.pick());
    auto error = [](const char *what) {
        return std::make_exception_ptr(std::runtime_error(what));
    };
    EXPECT_TRUE(d.fail(p[3].ticket, error("3")));
    EXPECT_TRUE(d.complete(p[2].ticket));
    EXPECT_TRUE(d.fail(p[1].ticket, error("1")));
    EXPECT_TRUE(d.complete(p[0].ticket));

    // Emission stops at the lowest failure, never past it.
    EXPECT_EQ(emitReady(d, 1), (std::vector<std::size_t>{0}));
    Dispatcher::Outcome outcome;
    ASSERT_TRUE(d.finish(1, outcome));
    EXPECT_EQ(outcome.status, Status::Error);
    EXPECT_EQ(outcome.completed, 1u);
    EXPECT_EQ(errorMessage(outcome), "1");
}

TEST(DispatcherTest, LostPointGoesAgainBeforeAnyLaterPointOfItsJob)
{
    Dispatcher d;
    d.submit(1, Dispatcher::plan({9, 8, 7, 6, 5}), 0, 1);
    const Dispatcher::Dispatch p0 = d.pick();
    const Dispatcher::Dispatch p1 = d.pick();
    const Dispatcher::Dispatch p2 = d.pick();
    EXPECT_EQ(d.queued(), 2u);

    d.lose(p1.ticket);
    EXPECT_EQ(d.queued(), 3u);
    const Dispatcher::Dispatch again = d.pick();
    EXPECT_EQ(again.index, 1u);
    EXPECT_NE(again.ticket, p1.ticket);
    EXPECT_FALSE(again.first);
    EXPECT_EQ(d.pick().index, 3u);

    d.lose(p0.ticket);
    d.lose(p2.ticket);
    EXPECT_EQ(d.pick().index, 0u);
    EXPECT_EQ(d.pick().index, 2u);
    EXPECT_EQ(d.pick().index, 4u);
}

TEST(DispatcherTest, CompletionForARequeuedPointIsIgnored)
{
    Dispatcher d;
    d.submit(1, gridOrder(2), 0, 1);
    const Dispatcher::Dispatch lost = d.pick();
    d.lose(lost.ticket);
    EXPECT_FALSE(d.complete(lost.ticket));
    EXPECT_FALSE(d.fail(lost.ticket, nullptr));
    d.lose(lost.ticket); // A second loss of it changes nothing.
    EXPECT_EQ(d.queued(), 2u);
    EXPECT_TRUE(emitReady(d, 1).empty());

    const Dispatcher::Dispatch again = d.pick();
    EXPECT_EQ(again.index, 0u);
    EXPECT_TRUE(d.complete(again.ticket));
    EXPECT_FALSE(d.complete(again.ticket));
    EXPECT_EQ(emitReady(d, 1), (std::vector<std::size_t>{0}));
}

TEST(DispatcherTest, CancelDropsQueuedPointsAndEndsAfterInFlightOnes)
{
    Dispatcher d;
    d.submit(1, gridOrder(4), 0, 1);
    d.submit(2, gridOrder(2), 0, 1);
    const Dispatcher::Dispatch p0 = d.pick();
    d.pick(); // Job 2's first point.
    const Dispatcher::Dispatch p1 = d.pick();
    ASSERT_EQ(p1.job, 1u);

    d.cancel(1);
    EXPECT_EQ(d.queued(), 1u); // Only job 2's second point is left.
    EXPECT_EQ(d.pick().job, 2u);
    EXPECT_EQ(d.pick().ticket, 0u);

    Dispatcher::Outcome outcome;
    EXPECT_FALSE(d.finish(1, outcome));
    EXPECT_TRUE(d.complete(p1.ticket));
    EXPECT_TRUE(emitReady(d, 1).empty()); // Point 0 still runs.
    EXPECT_FALSE(d.finish(1, outcome));
    EXPECT_TRUE(d.complete(p0.ticket));
    EXPECT_EQ(emitReady(d, 1), (std::vector<std::size_t>{0, 1}));
    ASSERT_TRUE(d.finish(1, outcome));
    EXPECT_EQ(outcome.status, Status::Cancelled);
    EXPECT_EQ(outcome.completed, 2u);
    EXPECT_FALSE(d.finish(1, outcome)); // Exactly once.

    // A point lost after its job was cancelled is dropped, not
    // queued again.
    d.submit(3, gridOrder(2), 0, 1);
    const Dispatcher::Dispatch p3 = d.pick();
    ASSERT_EQ(p3.job, 3u);
    d.cancel(3);
    d.lose(p3.ticket);
    EXPECT_EQ(d.queued(), 0u);
    ASSERT_TRUE(d.finish(3, outcome));
    EXPECT_EQ(outcome.status, Status::Cancelled);
    EXPECT_EQ(outcome.completed, 0u);
}

TEST(DispatcherTest, PrefilledPointsEmitWithoutBeingDispatched)
{
    Dispatcher d;
    d.submit(1, gridOrder(4), 0, 1);
    d.prefill(1, 0);
    d.prefill(1, 2);
    EXPECT_EQ(d.queued(), 2u);
    EXPECT_EQ(emitReady(d, 1), (std::vector<std::size_t>{0}));
    const Dispatcher::Dispatch p1 = d.pick();
    const Dispatcher::Dispatch p3 = d.pick();
    EXPECT_EQ(p1.index, 1u);
    EXPECT_EQ(p3.index, 3u);
    EXPECT_EQ(d.pick().ticket, 0u);
    EXPECT_TRUE(d.complete(p1.ticket));
    EXPECT_EQ(emitReady(d, 1), (std::vector<std::size_t>{1, 2}));
    EXPECT_TRUE(d.complete(p3.ticket));
    EXPECT_EQ(emitReady(d, 1), (std::vector<std::size_t>{3}));

    // A grid answered wholly from the cache never dispatches.
    d.submit(2, gridOrder(3), 0, 1);
    for (std::size_t i = 0; i < 3; ++i)
        d.prefill(2, i);
    EXPECT_FALSE(d.dispatchable());
    EXPECT_EQ(emitReady(d, 2), (std::vector<std::size_t>{0, 1, 2}));
    Dispatcher::Outcome outcome;
    ASSERT_TRUE(d.finish(2, outcome));
    EXPECT_EQ(outcome.status, Status::Ok);
    EXPECT_EQ(outcome.completed, 3u);
}

TEST(DispatcherTest, OneEmitterAtATimeAndTheJobEndsAfterIt)
{
    Dispatcher d;
    d.submit(1, gridOrder(2), 0, 1);
    const Dispatcher::Dispatch p0 = d.pick();
    const Dispatcher::Dispatch p1 = d.pick();
    EXPECT_TRUE(d.complete(p0.ticket));
    const Dispatcher::Run held = d.takeEmit(1, false);
    EXPECT_EQ(held.from, 0u);
    EXPECT_EQ(held.to, 1u);

    // While the holder emits, point 1 completes: its completer gets
    // nothing, and the job is not over until the holder is done.
    EXPECT_TRUE(d.complete(p1.ticket));
    EXPECT_TRUE(d.takeEmit(1, false).empty());
    Dispatcher::Outcome outcome;
    EXPECT_FALSE(d.finish(1, outcome));
    const Dispatcher::Run rest = d.takeEmit(1, true);
    EXPECT_EQ(rest.from, 1u);
    EXPECT_EQ(rest.to, 2u);
    EXPECT_FALSE(d.finish(1, outcome));
    EXPECT_TRUE(d.takeEmit(1, true).empty());
    ASSERT_TRUE(d.finish(1, outcome));
    EXPECT_EQ(outcome.status, Status::Ok);
    EXPECT_EQ(outcome.completed, 2u);
}

TEST(DispatcherTest, EveryPointEmitsExactlyOnceInGridOrder)
{
    // Two jobs on three slots, completions out of order, one slot
    // lost twice: each job still emits 0..n-1 once each, in order.
    Dispatcher d;
    d.submit(1, Dispatcher::plan({3, 1, 4, 1, 5, 9, 2, 6}), 0, 1);
    d.submit(2, Dispatcher::plan({2, 7, 1, 8, 2, 8}), 0, 2);
    std::vector<std::vector<std::size_t>> emitted(3);
    std::vector<Dispatcher::Dispatch> slots(3);
    unsigned losses = 0;
    for (unsigned step = 1;; ++step) {
        bool busy = false;
        for (Dispatcher::Dispatch &slot : slots) {
            if (slot.ticket == 0)
                slot = d.pick();
            busy = busy || slot.ticket != 0;
        }
        if (!busy)
            break;
        // A fixed pattern picks which busy slot reports next; every
        // fifth report is a loss instead, twice.
        std::size_t k = step % slots.size();
        while (slots[k].ticket == 0)
            k = (k + 1) % slots.size();
        Dispatcher::Dispatch &slot = slots[k];
        if (step % 5 == 0 && losses < 2) {
            ++losses;
            d.lose(slot.ticket);
        } else {
            EXPECT_TRUE(d.complete(slot.ticket));
            for (std::size_t i : emitReady(d, slot.job))
                emitted[slot.job].push_back(i);
        }
        slot = {};
    }
    EXPECT_EQ(losses, 2u);
    const std::size_t sizes[] = {0, 8, 6};
    for (Dispatcher::JobId job : {1u, 2u}) {
        ASSERT_EQ(emitted[job].size(), sizes[job]);
        for (std::size_t i = 0; i < sizes[job]; ++i)
            EXPECT_EQ(emitted[job][i], i) << "job " << job;
        Dispatcher::Outcome outcome;
        ASSERT_TRUE(d.finish(job, outcome));
        EXPECT_EQ(outcome.status, Status::Ok);
        EXPECT_EQ(outcome.completed, sizes[job]);
    }
    EXPECT_EQ(d.queued(), 0u);
}

TEST(DispatcherTest, EmptyGridIsOverAtOnce)
{
    Dispatcher d;
    d.submit(1, gridOrder(0), 0, 1);
    EXPECT_FALSE(d.dispatchable());
    Dispatcher::Outcome outcome;
    ASSERT_TRUE(d.finish(1, outcome));
    EXPECT_EQ(outcome.status, Status::Ok);
    EXPECT_EQ(outcome.completed, 0u);
}

/**
 * A schedule fuzzer: seeded random jobs, slots and event orders,
 * checked against a model of what each point went through. Each
 * schedule admits up to four jobs over one to four slots and then,
 * until nothing is left to do, draws one of: admit the next job,
 * pick into a free slot, complete, fail or lose a busy slot's point,
 * report a lost ticket late, cancel a job, or let the one emitter
 * take its next run of a job's results.
 */
class ScheduleFuzz
{
  public:
    explicit ScheduleFuzz(std::uint64_t seed) : rng_(seed) {}

    void run()
    {
        const std::size_t jobs = draw(1, 4);
        for (std::size_t j = 0; j < jobs; ++j)
            jobs_.push_back(makeJob());
        slots_.resize(draw(1, 4));
        while (step()) {
        }
        // The events ran out: nothing may be left to dispatch, and
        // every job ends once its emitter has taken the rest.
        EXPECT_FALSE(d_.dispatchable());
        EXPECT_EQ(d_.queued(), 0u);
        for (Dispatcher::JobId id = 1; id <= jobs_.size(); ++id) {
            while (!jobs_[id - 1].finished && emit(id)) {
            }
            EXPECT_TRUE(jobs_[id - 1].finished) << "job " << id;
            Dispatcher::Outcome again;
            EXPECT_FALSE(d_.finish(id, again)) << "job " << id
                                               << " finished twice";
        }
    }

  private:
    enum class State
    {
        Queued,
        InFlight,
        Done,
        Failed,
    };

    struct Job
    {
        std::vector<std::uint64_t> cost;
        std::vector<std::size_t> predecessor; ///< Empty: ungated.
        std::vector<bool> prefilled;
        unsigned budget = 0;
        std::uint64_t weight = 1;
        std::vector<State> state;
        unsigned inFlight = 0;
        std::vector<std::size_t> emitted;
        std::vector<std::size_t> failed;
        bool submitted = false;
        bool cancelled = false;
        bool holding = false; ///< The emitter holds the job's token.
        bool finished = false;
    };

    std::size_t draw(std::size_t lo, std::size_t hi)
    {
        return std::uniform_int_distribution<std::size_t>(lo, hi)(rng_);
    }

    Job makeJob()
    {
        Job job;
        const std::size_t size = draw(0, 10);
        const bool gated = draw(0, 1) == 1;
        for (std::size_t i = 0; i < size; ++i) {
            job.cost.push_back(draw(0, 4));
            // A gate points at a lower index, so it is acyclic.
            if (gated)
                job.predecessor.push_back(i > 0 && draw(0, 2) == 0
                                              ? draw(0, i - 1)
                                              : kNone);
            job.prefilled.push_back(draw(0, 5) == 0);
        }
        job.budget = static_cast<unsigned>(draw(0, 3));
        job.weight = draw(1, 3);
        job.state.assign(size, State::Queued);
        return job;
    }

    void submit(Dispatcher::JobId id, Job &job)
    {
        Dispatcher::Gate gate;
        if (!job.predecessor.empty()) {
            gate = [&job](const std::vector<std::size_t> &) {
                return job.predecessor;
            };
        }
        d_.submit(id, Dispatcher::plan(job.cost, gate), job.budget,
                  job.weight);
        for (std::size_t i = 0; i < job.state.size(); ++i) {
            if (job.prefilled[i]) {
                d_.prefill(id, i);
                job.state[i] = State::Done;
            }
        }
        job.submitted = true;
    }

    void pick(Dispatcher::Dispatch &slot)
    {
        slot = d_.pick();
        ASSERT_NE(slot.ticket, 0u);
        Job &job = jobs_.at(slot.job - 1);
        ASSERT_EQ(job.state.at(slot.index), State::Queued);
        EXPECT_FALSE(job.cancelled);
        EXPECT_TRUE(job.failed.empty());
        if (!job.predecessor.empty()) {
            const std::size_t p = job.predecessor[slot.index];
            EXPECT_TRUE(p == kNone || job.state[p] == State::Done ||
                        job.state[p] == State::Failed)
                << "point " << slot.index << " passed its gate";
        }
        job.state[slot.index] = State::InFlight;
        ++job.inFlight;
        if (job.budget != 0) {
            EXPECT_LE(job.inFlight, job.budget);
        }
    }

    /** The slot's point completed, failed or was lost with it. */
    void report(Dispatcher::Dispatch &slot, std::size_t what)
    {
        Job &job = jobs_.at(slot.job - 1);
        --job.inFlight;
        if (what == 0) {
            EXPECT_TRUE(d_.complete(slot.ticket));
            job.state[slot.index] = State::Done;
        } else if (what == 1) {
            EXPECT_TRUE(d_.fail(slot.ticket,
                                std::make_exception_ptr(std::runtime_error(
                                    std::to_string(slot.index)))));
            job.state[slot.index] = State::Failed;
            job.failed.push_back(slot.index);
        } else {
            d_.lose(slot.ticket);
            job.state[slot.index] = State::Queued;
            lost_.push_back(slot.ticket);
        }
        slot = {};
    }

    /** One emitter step for job `id`; false when it took nothing. */
    bool emit(Dispatcher::JobId id)
    {
        Job &job = jobs_[id - 1];
        if (job.holding) {
            // Nobody else may emit while the token is held.
            EXPECT_TRUE(d_.takeEmit(id, false).empty());
        }
        const Dispatcher::Run run = d_.takeEmit(id, job.holding);
        for (std::size_t i = run.from; i < run.to; ++i) {
            EXPECT_EQ(i, job.emitted.size()) << "gap or repeat";
            EXPECT_EQ(job.state.at(i), State::Done);
            job.emitted.push_back(i);
        }
        job.holding = !run.empty();
        Dispatcher::Outcome outcome;
        if (!job.holding && d_.finish(id, outcome)) {
            job.finished = true;
            checkOutcome(job, outcome);
        }
        return !run.empty();
    }

    void checkOutcome(const Job &job, const Dispatcher::Outcome &outcome)
    {
        EXPECT_EQ(outcome.completed, job.emitted.size());
        if (!job.failed.empty()) {
            const std::size_t lowest =
                *std::min_element(job.failed.begin(), job.failed.end());
            ASSERT_EQ(outcome.status, Status::Error);
            EXPECT_EQ(errorMessage(outcome), std::to_string(lowest));
            EXPECT_LE(job.emitted.size(), lowest);
        } else if (job.emitted.size() == job.state.size()) {
            EXPECT_EQ(outcome.status, Status::Ok);
        } else {
            EXPECT_EQ(outcome.status, Status::Cancelled);
            EXPECT_TRUE(job.cancelled);
        }
    }

    /** Draw and play one event; false when none is left. */
    bool step()
    {
        std::vector<std::size_t> free, busy, open;
        for (std::size_t s = 0; s < slots_.size(); ++s)
            (slots_[s].ticket == 0 ? free : busy).push_back(s);
        std::size_t admitted = 0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            admitted += jobs_[j].submitted;
            if (jobs_[j].submitted && !jobs_[j].finished)
                open.push_back(j + 1);
        }
        const bool can_pick = !free.empty() && d_.dispatchable();
        if (admitted == jobs_.size() && !can_pick && busy.empty() &&
            lost_.empty())
            return false;

        for (;;) {
            const std::size_t event = draw(0, 19);
            if (event == 0 && admitted < jobs_.size()) {
                submit(admitted + 1, jobs_[admitted]);
            } else if (event <= 6 && can_pick) {
                pick(slots_[free[draw(0, free.size() - 1)]]);
            } else if (event >= 7 && event <= 12 && !busy.empty()) {
                // Mostly completions; a failure or a loss now and then.
                const std::size_t r = draw(0, 9);
                report(slots_[busy[draw(0, busy.size() - 1)]],
                       r == 0 ? 1 : r == 1 ? 2 : 0);
            } else if (event == 13 && !lost_.empty()) {
                const std::size_t k = draw(0, lost_.size() - 1);
                EXPECT_FALSE(draw(0, 1) == 0
                                 ? d_.complete(lost_[k])
                                 : d_.fail(lost_[k], nullptr))
                    << "a stale ticket was accepted";
                lost_.erase(lost_.begin() + static_cast<long>(k));
            } else if (event == 14 && !open.empty() && draw(0, 4) == 0) {
                const Dispatcher::JobId id = open[draw(0, open.size() - 1)];
                d_.cancel(id);
                jobs_[id - 1].cancelled = true;
            } else if (event >= 15 && !open.empty()) {
                emit(open[draw(0, open.size() - 1)]);
            } else {
                continue;
            }
            return true;
        }
    }

    std::mt19937_64 rng_;
    Dispatcher d_;
    std::vector<Job> jobs_;
    std::vector<Dispatcher::Dispatch> slots_;
    std::vector<Dispatcher::Ticket> lost_;
};

TEST(DispatcherTest, RandomSchedulesKeepEveryInvariant)
{
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        ScheduleFuzz(seed).run();
        if (HasFailure())
            return;
    }
}

TEST(DispatcherDeathTest, CyclicGatePanics)
{
    EXPECT_DEATH(gated({1, 0}), "acyclic");
    EXPECT_DEATH(gated({kNone, 5}), "acyclic");
}

} // namespace
} // namespace runner
} // namespace shotgun
