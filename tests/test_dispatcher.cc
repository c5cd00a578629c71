/**
 * @file
 * The scheduling policy on its own: runner::Dispatcher driven by
 * explicit events, with no threads, sockets or sleeps. Each test plays
 * the part of a shell -- GridScheduler's pool or the fleet
 * coordinator's slots -- and checks the decisions that come back:
 * which point goes next, which results emit, and when a job is over.
 */

#include <gtest/gtest.h>

#include <cstdint>
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

TEST(DispatcherDeathTest, CyclicGatePanics)
{
    EXPECT_DEATH(gated({1, 0}), "acyclic");
    EXPECT_DEATH(gated({kNone, 5}), "acyclic");
}

} // namespace
} // namespace runner
} // namespace shotgun
