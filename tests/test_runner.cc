/**
 * @file
 * Tests for the src/runner/ experiment-orchestration subsystem: the
 * experiment set/grid bookkeeping, the result sink's serialization,
 * and -- the load-bearing property -- that a parallel grid run is
 * bitwise-identical to a serial one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runner/experiment.hh"
#include "runner/grid_scheduler.hh"
#include "runner/progress.hh"
#include "runner/result_sink.hh"
#include "sim/simulator.hh"

namespace shotgun
{
namespace
{

using runner::ExperimentRunner;
using runner::ExperimentSet;
using runner::GridScheduler;
using runner::ProgressReporter;
using runner::ResultRow;
using runner::ResultSink;
using runner::RunnerOptions;

// ------------------------------------------------------------ ExperimentSet

TEST(ExperimentSetTest, AddReturnsSequentialIndices)
{
    const WorkloadPreset preset = makePreset(WorkloadId::Nutch);
    ExperimentSet set;
    EXPECT_EQ(set.add(preset, "a",
                      SimConfig::make(preset, SchemeType::Shotgun)),
              0u);
    EXPECT_EQ(set.add(preset, "b",
                      SimConfig::make(preset, SchemeType::Boomerang)),
              1u);
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.experiments()[1].label, "b");
}

TEST(ExperimentSetTest, BaselineIsDeduplicated)
{
    const WorkloadPreset preset = makePreset(WorkloadId::Nutch);
    ExperimentSet set;
    const std::size_t first = set.addBaseline(preset, 1000, 2000);
    const std::size_t second = set.addBaseline(preset, 1000, 2000);
    EXPECT_EQ(first, second);
    EXPECT_EQ(set.size(), 1u);
    EXPECT_EQ(set.baselineIndex(preset.name), first);
    EXPECT_EQ(set.baselineIndex("no-such-workload"),
              ExperimentSet::npos);
    EXPECT_EQ(set.experiments()[first].config.scheme.type,
              SchemeType::Baseline);
}

// ------------------------------------------------------------------ Progress

TEST(ProgressTest, CountsAndFormats)
{
    std::ostringstream os;
    ProgressReporter progress(2, &os);
    progress.completed("w/a", 0.5);
    progress.completed("w/b", 0.25);
    EXPECT_EQ(progress.done(), 2u);
    const std::string out = os.str();
    EXPECT_NE(out.find("[1/2] w/a"), std::string::npos);
    EXPECT_NE(out.find("[2/2] w/b"), std::string::npos);
    EXPECT_NE(out.find("total"), std::string::npos);
}

TEST(ProgressTest, NullStreamIsQuiet)
{
    ProgressReporter progress(1, nullptr);
    progress.completed("x", 0.0); // must not crash
    EXPECT_EQ(progress.done(), 1u);
}

TEST(ProgressTest, FormatDuration)
{
    EXPECT_EQ(runner::formatDuration(7.2), "7s");
    EXPECT_EQ(runner::formatDuration(125.0), "2m05s");
    EXPECT_EQ(runner::formatDuration(3723.0), "1h02m");
}

// ---------------------------------------------------------------- ResultSink

TEST(ResultSinkTest, SerializesRows)
{
    ResultSink sink("unit");
    ResultRow row;
    row.workload = "nutch";
    row.label = "shotgun";
    row.result.instructions = 1000;
    row.result.cycles = 2000;
    row.result.ipc = 0.5;
    row.hasBaseline = true;
    row.speedup = 1.25;
    row.stallCoverage = 0.5;
    sink.add(row);

    std::ostringstream json;
    sink.writeJson(json);
    EXPECT_NE(json.str().find("\"experiment\": \"unit\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"workload\": \"nutch\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"speedup\": 1.25"), std::string::npos);

    std::ostringstream csv;
    sink.writeCsv(csv);
    EXPECT_NE(csv.str().find("nutch,shotgun,1000,2000,0.5"),
              std::string::npos);

    std::ostringstream table;
    sink.printTable(table);
    EXPECT_NE(table.str().find("nutch"), std::string::npos);
}

TEST(ResultSinkTest, CsvQuotesSpecialCharacters)
{
    // Ad-hoc workload names (trace: specs, studio labels) may contain
    // commas and quotes; RFC 4180 quoting must keep the CSV parseable.
    ResultSink sink("unit");
    ResultRow row;
    row.workload = "trace:/tmp/a,b.trace";
    row.label = "shotgun \"tuned\"";
    sink.add(row);

    std::ostringstream csv;
    sink.writeCsv(csv);
    EXPECT_NE(csv.str().find("\"trace:/tmp/a,b.trace\""),
              std::string::npos);
    EXPECT_NE(csv.str().find("\"shotgun \"\"tuned\"\"\""),
              std::string::npos);

    // Plain names stay unquoted.
    ResultSink plain("unit");
    ResultRow simple;
    simple.workload = "nutch";
    simple.label = "shotgun";
    plain.add(simple);
    std::ostringstream plain_csv;
    plain.writeCsv(plain_csv);
    EXPECT_NE(plain_csv.str().find("\nnutch,shotgun,"),
              std::string::npos);
}

TEST(ResultSinkTest, SerializationDoesNotLeakStreamFormatting)
{
    ResultSink sink("unit");
    ResultRow row;
    row.workload = "w";
    row.label = "l";
    row.result.ipc = 1.0 / 3.0;
    sink.add(row);

    std::ostringstream os;
    const auto precision_before = os.precision();
    sink.writeCsv(os);
    sink.writeJson(os);
    EXPECT_EQ(os.precision(), precision_before);

    // A later plain double write must use default formatting again.
    std::ostringstream tail;
    sink.writeCsv(tail);
    tail << 1.0 / 3.0;
    const std::string text = tail.str();
    ASSERT_GE(text.size(), 8u);
    EXPECT_EQ(text.substr(text.size() - 8), "0.333333");
}

// ------------------------------------------------------------ GridScheduler

/** A grid of `n` placeholder points; simulate hooks fabricate the
 * results, so these tests pin scheduler behaviour, not simulation. */
std::vector<runner::Experiment>
fakeGrid(std::size_t n, const std::string &tag)
{
    std::vector<runner::Experiment> grid(n);
    for (std::size_t i = 0; i < n; ++i) {
        grid[i].workload = tag;
        grid[i].label = "p" + std::to_string(i);
    }
    return grid;
}

SimResult
fakeResult(std::size_t index)
{
    SimResult result;
    result.instructions = index + 1;
    result.cycles = 1000 + index;
    return result;
}

struct DoneCapture
{
    std::mutex mutex;
    std::condition_variable cv;
    bool fired = false;
    GridScheduler::Outcome outcome;

    std::function<void(const GridScheduler::Outcome &)> hook()
    {
        return [this](const GridScheduler::Outcome &o) {
            std::lock_guard<std::mutex> lock(mutex);
            outcome = o;
            fired = true;
            cv.notify_all();
        };
    }

    GridScheduler::Outcome wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this]() { return fired; });
        return outcome;
    }
};

TEST(GridSchedulerTest, EmitsInGridOrderAndReportsOk)
{
    GridScheduler scheduler(GridScheduler::Options(4));
    const auto grid = fakeGrid(16, "order");

    std::mutex mutex;
    std::vector<std::size_t> emitted;
    DoneCapture done;

    GridScheduler::JobHooks hooks;
    hooks.simulate = [](std::size_t index, const runner::Experiment &) {
        // Later points finish sooner: emission order must not care.
        std::this_thread::sleep_for(
            std::chrono::microseconds((16 - index) * 100));
        return fakeResult(index);
    };
    hooks.onResult = [&](std::size_t index, const runner::Experiment &,
                         const SimResult &result) {
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(result.instructions, index + 1);
        emitted.push_back(index);
    };
    hooks.onDone = done.hook();
    scheduler.submit(grid, 0, std::move(hooks));

    const auto outcome = done.wait();
    EXPECT_EQ(outcome.status, GridScheduler::Outcome::Status::Ok);
    EXPECT_EQ(outcome.completed, grid.size());
    ASSERT_EQ(emitted.size(), grid.size());
    for (std::size_t i = 0; i < emitted.size(); ++i)
        EXPECT_EQ(emitted[i], i);
}

TEST(GridSchedulerTest, ConcurrentJobsBothMakeProgress)
{
    // Pool of 2; job A is long, job B short and submitted second.
    // Round-robin dispatch must start B's points while A still has
    // undispatched work, so B finishes long before A's last point.
    GridScheduler scheduler(GridScheduler::Options(2));

    std::mutex mutex;
    std::vector<std::string> sequence;
    auto record = [&](const std::string &tag) {
        std::lock_guard<std::mutex> lock(mutex);
        sequence.push_back(tag);
    };

    DoneCapture done_a, done_b;
    GridScheduler::JobHooks hooks_a;
    hooks_a.simulate = [&](std::size_t index,
                           const runner::Experiment &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        record("a" + std::to_string(index));
        return fakeResult(index);
    };
    hooks_a.onDone = done_a.hook();
    scheduler.submit(fakeGrid(8, "a"), 0, std::move(hooks_a));

    GridScheduler::JobHooks hooks_b;
    hooks_b.simulate = [&](std::size_t index,
                           const runner::Experiment &) {
        record("b" + std::to_string(index));
        return fakeResult(index);
    };
    hooks_b.onDone = done_b.hook();
    scheduler.submit(fakeGrid(2, "b"), 0, std::move(hooks_b));

    EXPECT_EQ(done_a.wait().status,
              GridScheduler::Outcome::Status::Ok);
    EXPECT_EQ(done_b.wait().status,
              GridScheduler::Outcome::Status::Ok);

    // B's first point must have run before A's last: the older job
    // did not own the pool.
    const auto first_b = std::find(sequence.begin(), sequence.end(),
                                   std::string("b0"));
    const auto last_a = std::find(sequence.begin(), sequence.end(),
                                  std::string("a7"));
    ASSERT_NE(first_b, sequence.end());
    ASSERT_NE(last_a, sequence.end());
    EXPECT_LT(first_b - sequence.begin(), last_a - sequence.begin());
}

TEST(GridSchedulerTest, CostOrderedDispatchRunsLongestFirstEmitsInOrder)
{
    // costOf makes dispatch longest-first (LPT) while emission must
    // stay in grid order. One worker serializes dispatch, so the
    // simulate call order is exactly the cost order.
    GridScheduler scheduler(GridScheduler::Options(1));
    const auto grid = fakeGrid(6, "lpt");

    std::mutex mutex;
    std::vector<std::size_t> dispatched, emitted;
    DoneCapture done;

    GridScheduler::JobHooks hooks;
    hooks.costOf = [](std::size_t index, const runner::Experiment &) {
        // Ascending cost by index: dispatch must reverse grid order.
        return static_cast<std::uint64_t>(index);
    };
    hooks.simulate = [&](std::size_t index,
                         const runner::Experiment &) {
        std::lock_guard<std::mutex> lock(mutex);
        dispatched.push_back(index);
        return fakeResult(index);
    };
    hooks.onResult = [&](std::size_t index, const runner::Experiment &,
                         const SimResult &) {
        std::lock_guard<std::mutex> lock(mutex);
        emitted.push_back(index);
    };
    hooks.onDone = done.hook();
    scheduler.submit(grid, 0, std::move(hooks));

    EXPECT_EQ(done.wait().status, GridScheduler::Outcome::Status::Ok);
    ASSERT_EQ(dispatched.size(), grid.size());
    for (std::size_t i = 0; i < dispatched.size(); ++i)
        EXPECT_EQ(dispatched[i], grid.size() - 1 - i) << "slot " << i;
    ASSERT_EQ(emitted.size(), grid.size());
    for (std::size_t i = 0; i < emitted.size(); ++i)
        EXPECT_EQ(emitted[i], i);
}

TEST(GridSchedulerTest, WeightedFairShareFavorsHeavierJob)
{
    // Jobs A (weight 1) and B (weight 3) queued behind a plug that
    // wedges the single worker until both are admitted: the stride
    // scheduler must then give B three dispatches for each of A's,
    // so B's 6 points all run well before A's fourth.
    GridScheduler scheduler(GridScheduler::Options(1));

    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    std::vector<std::string> sequence;

    DoneCapture done_plug;
    GridScheduler::JobHooks plug;
    plug.simulate = [&](std::size_t index,
                        const runner::Experiment &) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() { return release; });
        return fakeResult(index);
    };
    plug.onDone = done_plug.hook();
    scheduler.submit(fakeGrid(1, "plug"), 0, std::move(plug));

    auto record = [&](const std::string &tag) {
        return [&sequence, &mutex, tag](std::size_t index,
                                        const runner::Experiment &) {
            std::lock_guard<std::mutex> lock(mutex);
            sequence.push_back(tag + std::to_string(index));
            return fakeResult(index);
        };
    };
    DoneCapture done_a, done_b;
    GridScheduler::JobHooks hooks_a;
    hooks_a.simulate = record("a");
    hooks_a.onDone = done_a.hook();
    scheduler.submit(fakeGrid(6, "a"), 0, /*weight=*/1,
                     std::move(hooks_a));
    GridScheduler::JobHooks hooks_b;
    hooks_b.simulate = record("b");
    hooks_b.onDone = done_b.hook();
    scheduler.submit(fakeGrid(6, "b"), 0, /*weight=*/3,
                     std::move(hooks_b));

    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
        cv.notify_all();
    }
    EXPECT_EQ(done_plug.wait().status,
              GridScheduler::Outcome::Status::Ok);
    EXPECT_EQ(done_a.wait().status,
              GridScheduler::Outcome::Status::Ok);
    EXPECT_EQ(done_b.wait().status,
              GridScheduler::Outcome::Status::Ok);

    // 3:1 share: b5 must run before a3 whatever the tie-breaks did.
    const auto last_b = std::find(sequence.begin(), sequence.end(),
                                  std::string("b5"));
    const auto fourth_a = std::find(sequence.begin(), sequence.end(),
                                    std::string("a3"));
    ASSERT_NE(last_b, sequence.end());
    ASSERT_NE(fourth_a, sequence.end());
    EXPECT_LT(last_b - sequence.begin(), fourth_a - sequence.begin());
}

TEST(GridSchedulerTest, CancelStopsDispatchTruthfully)
{
    GridScheduler scheduler(GridScheduler::Options(1));

    std::mutex mutex;
    std::condition_variable cv;
    bool started = false, release = false;
    std::atomic<int> simulated{0};

    DoneCapture done;
    GridScheduler::JobHooks hooks;
    hooks.simulate = [&](std::size_t index,
                         const runner::Experiment &) {
        ++simulated;
        std::unique_lock<std::mutex> lock(mutex);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&]() { return release; });
        return fakeResult(index);
    };
    hooks.onDone = done.hook();
    const std::uint64_t id =
        scheduler.submit(fakeGrid(8, "cancel"), 0, std::move(hooks));

    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() { return started; });
    }
    scheduler.cancel(id);
    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
        cv.notify_all();
    }

    const auto outcome = done.wait();
    EXPECT_EQ(outcome.status,
              GridScheduler::Outcome::Status::Cancelled);
    // The in-flight point finished; nothing further was dispatched.
    EXPECT_EQ(simulated.load(), 1);
    EXPECT_EQ(outcome.completed, 1u);
}

TEST(GridSchedulerTest, CancelQueuedJobNeedsNoWorker)
{
    // One worker, wedged on job A; job B is cancelled while fully
    // queued -- its outcome must arrive without any worker touching
    // it (the canceller's thread finalizes it).
    GridScheduler scheduler(GridScheduler::Options(1));

    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;

    DoneCapture done_a, done_b;
    GridScheduler::JobHooks hooks_a;
    hooks_a.simulate = [&](std::size_t index,
                           const runner::Experiment &) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() { return release; });
        return fakeResult(index);
    };
    hooks_a.onDone = done_a.hook();
    scheduler.submit(fakeGrid(1, "a"), 0, std::move(hooks_a));

    std::atomic<int> b_simulated{0};
    GridScheduler::JobHooks hooks_b;
    hooks_b.simulate = [&](std::size_t index,
                           const runner::Experiment &) {
        ++b_simulated;
        return fakeResult(index);
    };
    hooks_b.onDone = done_b.hook();
    const std::uint64_t id_b =
        scheduler.submit(fakeGrid(4, "b"), 0, std::move(hooks_b));

    scheduler.cancel(id_b);
    const auto outcome_b = done_b.wait(); // Worker still wedged.
    EXPECT_EQ(outcome_b.status,
              GridScheduler::Outcome::Status::Cancelled);
    EXPECT_EQ(outcome_b.completed, 0u);
    EXPECT_EQ(b_simulated.load(), 0);

    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
        cv.notify_all();
    }
    EXPECT_EQ(done_a.wait().status,
              GridScheduler::Outcome::Status::Ok);
}

TEST(GridSchedulerTest, SimulateExceptionStopsJobNotPool)
{
    GridScheduler scheduler(GridScheduler::Options(1));

    DoneCapture done_bad, done_good;
    GridScheduler::JobHooks hooks_bad;
    hooks_bad.simulate =
        [](std::size_t index, const runner::Experiment &) -> SimResult {
        if (index == 1)
            throw std::runtime_error("boom at 1");
        return fakeResult(index);
    };
    hooks_bad.onDone = done_bad.hook();
    scheduler.submit(fakeGrid(8, "bad"), 0, std::move(hooks_bad));

    const auto outcome = done_bad.wait();
    EXPECT_EQ(outcome.status, GridScheduler::Outcome::Status::Error);
    EXPECT_EQ(outcome.completed, 1u); // Point 0 emitted, then stop.
    ASSERT_NE(outcome.error, nullptr);
    EXPECT_THROW(std::rethrow_exception(outcome.error),
                 std::runtime_error);

    // The pool survives a failed job and runs the next one.
    GridScheduler::JobHooks hooks_good;
    hooks_good.simulate = [](std::size_t index,
                             const runner::Experiment &) {
        return fakeResult(index);
    };
    hooks_good.onDone = done_good.hook();
    scheduler.submit(fakeGrid(2, "good"), 0, std::move(hooks_good));
    EXPECT_EQ(done_good.wait().status,
              GridScheduler::Outcome::Status::Ok);
}

TEST(GridSchedulerTest, BudgetCapsAJobsConcurrency)
{
    GridScheduler scheduler(GridScheduler::Options(4));

    std::atomic<int> inFlight{0}, peak{0};
    DoneCapture done;
    GridScheduler::JobHooks hooks;
    hooks.simulate = [&](std::size_t index,
                         const runner::Experiment &) {
        const int now = ++inFlight;
        int expected = peak.load();
        while (now > expected &&
               !peak.compare_exchange_weak(expected, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        --inFlight;
        return fakeResult(index);
    };
    hooks.onDone = done.hook();
    scheduler.submit(fakeGrid(12, "budget"), 2, std::move(hooks));

    EXPECT_EQ(done.wait().status, GridScheduler::Outcome::Status::Ok);
    EXPECT_LE(peak.load(), 2);
    EXPECT_GE(peak.load(), 1);
}

TEST(GridSchedulerTest, EmptyGridCompletesImmediately)
{
    GridScheduler scheduler(GridScheduler::Options(2));
    DoneCapture done;
    GridScheduler::JobHooks hooks;
    hooks.simulate = [](std::size_t, const runner::Experiment &) {
        return SimResult{};
    };
    hooks.onDone = done.hook();
    scheduler.submit({}, 0, std::move(hooks));
    const auto outcome = done.wait();
    EXPECT_EQ(outcome.status, GridScheduler::Outcome::Status::Ok);
    EXPECT_EQ(outcome.completed, 0u);
}

// ---------------------------------------------------- predecessor gate

/**
 * One run split into `n` contiguous windows, optionally preceded by
 * the monolithic run itself: placeholder points whose configs carry
 * real window bounds, so runner::checkpointPredecessors chains them.
 * The simulate hooks below fabricate results; nothing is simulated.
 */
std::vector<runner::Experiment>
windowGrid(unsigned n, bool with_monolithic)
{
    runner::Experiment base;
    base.workload = "gate";
    base.label = "mono";
    base.config.warmupInstructions = 1000;
    base.config.measureInstructions = 1000 * n;
    std::vector<runner::Experiment> grid;
    if (with_monolithic)
        grid.push_back(base);
    for (unsigned w = 0; w < n; ++w) {
        runner::Experiment sub = base;
        sub.label = "w" + std::to_string(w);
        sub.config.window.measureStart = 1000 * w;
        sub.config.window.measureEnd = 1000 * (w + 1);
        grid.push_back(std::move(sub));
    }
    return grid;
}

TEST(PredecessorGateTest, WindowsChainAndOnlyUnchainedPointsLead)
{
    constexpr std::size_t none = GridScheduler::kNoPredecessor;
    using Gate = std::vector<std::size_t>;
    const auto grid = windowGrid(4, true); // mono, w0, w1, w2, w3

    // The monolithic run leads its key, window 0 restores its warmup
    // and every later window resumes the one before it.
    EXPECT_EQ(runner::checkpointPredecessors(grid, {0, 1, 2, 3, 4}),
              (Gate{none, 0, 1, 2, 3}));
    // Longest-first order puts the last window first, but a window
    // with a chain predecessor never leads.
    EXPECT_EQ(runner::checkpointPredecessors(grid, {4, 3, 2, 1, 0}),
              (Gate{1, none, 1, 2, 3}));
    // Zero-warmup points store nothing, so nothing gates them.
    auto cold = grid;
    for (runner::Experiment &exp : cold)
        exp.config.warmupInstructions = 0;
    EXPECT_EQ(runner::checkpointPredecessors(cold, {0, 1, 2, 3, 4}),
              Gate(5, none));
}

TEST(PredecessorGateTest, ChainedJobNeverHasTwoPointsInFlight)
{
    GridScheduler scheduler(GridScheduler::Options(4));
    std::atomic<int> in_flight{0}, peak{0};
    std::mutex mutex;
    std::vector<std::size_t> dispatched;
    DoneCapture done;
    GridScheduler::JobHooks hooks;
    hooks.predecessors = runner::checkpointPredecessors;
    hooks.simulate = [&](std::size_t index, const runner::Experiment &) {
        const int now = ++in_flight;
        int expected = peak.load();
        while (now > expected &&
               !peak.compare_exchange_weak(expected, now)) {
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            dispatched.push_back(index);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        --in_flight;
        return fakeResult(index);
    };
    hooks.onDone = done.hook();
    scheduler.submit(windowGrid(8, false), 0, std::move(hooks));

    EXPECT_EQ(done.wait().status, GridScheduler::Outcome::Status::Ok);
    EXPECT_EQ(peak.load(), 1);
    ASSERT_EQ(dispatched.size(), 8u);
    for (std::size_t i = 0; i < dispatched.size(); ++i)
        EXPECT_EQ(dispatched[i], i);
}

TEST(PredecessorGateTest, LongestFirstChainStillStartsAtWindowZero)
{
    // The service's LPT cost ranks the last window first; the chain
    // must still start at window 0 and finish.
    GridScheduler scheduler(GridScheduler::Options(4));
    std::mutex mutex;
    std::vector<std::size_t> dispatched;
    DoneCapture done;
    GridScheduler::JobHooks hooks;
    hooks.costOf = [](std::size_t, const runner::Experiment &exp) {
        return exp.config.warmupInstructions +
               exp.config.window.measureEnd;
    };
    hooks.predecessors = runner::checkpointPredecessors;
    hooks.simulate = [&](std::size_t index, const runner::Experiment &) {
        std::lock_guard<std::mutex> lock(mutex);
        dispatched.push_back(index);
        return fakeResult(index);
    };
    hooks.onDone = done.hook();
    scheduler.submit(windowGrid(4, false), 0, std::move(hooks));

    const auto outcome = done.wait();
    EXPECT_EQ(outcome.status, GridScheduler::Outcome::Status::Ok);
    EXPECT_EQ(outcome.completed, 4u);
    EXPECT_EQ(dispatched, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(PredecessorGateTest, FailedOrCancelledChainEndsWithoutHanging)
{
    GridScheduler scheduler(GridScheduler::Options(4));

    // A throwing predecessor fails the job; its successors never run.
    std::atomic<int> simulated{0};
    DoneCapture failed;
    GridScheduler::JobHooks throwing;
    throwing.predecessors = runner::checkpointPredecessors;
    throwing.simulate = [&](std::size_t index,
                            const runner::Experiment &) -> SimResult {
        ++simulated;
        if (index == 1)
            throw std::runtime_error("boom at window 1");
        return fakeResult(index);
    };
    throwing.onDone = failed.hook();
    scheduler.submit(windowGrid(4, false), 0, std::move(throwing));
    const auto error = failed.wait();
    EXPECT_EQ(error.status, GridScheduler::Outcome::Status::Error);
    EXPECT_EQ(error.completed, 1u);
    EXPECT_EQ(simulated.load(), 2);

    // A cancel while window 1 runs: it finishes, nothing follows.
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false, release = false;
    std::atomic<int> ran{0};
    DoneCapture cancelled;
    GridScheduler::JobHooks blocking;
    blocking.predecessors = runner::checkpointPredecessors;
    blocking.simulate = [&](std::size_t index,
                            const runner::Experiment &) {
        ++ran;
        if (index == 1) {
            std::unique_lock<std::mutex> lock(mutex);
            started = true;
            cv.notify_all();
            cv.wait(lock, [&]() { return release; });
        }
        return fakeResult(index);
    };
    blocking.onDone = cancelled.hook();
    const std::uint64_t id =
        scheduler.submit(windowGrid(4, false), 0, std::move(blocking));
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() { return started; });
    }
    scheduler.cancel(id);
    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
        cv.notify_all();
    }
    const auto outcome = cancelled.wait();
    EXPECT_EQ(outcome.status, GridScheduler::Outcome::Status::Cancelled);
    EXPECT_EQ(outcome.completed, 2u);
    EXPECT_EQ(ran.load(), 2);
}

// ----------------------------------------------- parallel == serial results

/** Small but non-trivial synthetic workload: fast to simulate. */
WorkloadPreset
tinyPreset(const std::string &name, std::uint64_t seed)
{
    WorkloadPreset preset;
    preset.name = name;
    preset.program.name = name;
    preset.program.numFuncs = 150;
    preset.program.numOsFuncs = 30;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;
    preset.program.seed = seed;
    return preset;
}

ExperimentSet
quickGrid()
{
    const std::uint64_t warmup = 20000, measure = 50000;
    ExperimentSet set;
    for (int w = 0; w < 3; ++w) {
        const WorkloadPreset preset =
            tinyPreset("runner-w" + std::to_string(w),
                       0xabc0 + static_cast<std::uint64_t>(w));
        set.addBaseline(preset, warmup, measure);
        for (SchemeType type :
             {SchemeType::Boomerang, SchemeType::Confluence,
              SchemeType::Shotgun}) {
            SimConfig config = SimConfig::make(preset, type);
            config.warmupInstructions = warmup;
            config.measureInstructions = measure;
            set.add(preset, schemeTypeName(type), config);
        }
    }
    return set;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.btbMPKI, b.btbMPKI);
    EXPECT_EQ(a.l1iMPKI, b.l1iMPKI);
    EXPECT_EQ(a.mispredictsPerKI, b.mispredictsPerKI);
    EXPECT_EQ(a.stalls.icache, b.stalls.icache);
    EXPECT_EQ(a.stalls.btbResolve, b.stalls.btbResolve);
    EXPECT_EQ(a.stalls.misfetch, b.stalls.misfetch);
    EXPECT_EQ(a.stalls.mispredict, b.stalls.mispredict);
    EXPECT_EQ(a.stalls.other, b.stalls.other);
    EXPECT_EQ(a.frontEndStallCycles, b.frontEndStallCycles);
    EXPECT_EQ(a.prefetchAccuracy, b.prefetchAccuracy);
    EXPECT_EQ(a.avgL1DFillCycles, b.avgL1DFillCycles);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.schemeStorageBits, b.schemeStorageBits);
}

TEST(ExperimentRunnerTest, ParallelRunMatchesSerialBitwise)
{
    const ExperimentSet set = quickGrid();

    RunnerOptions serial_opts;
    serial_opts.jobs = 1;
    const auto serial = ExperimentRunner(serial_opts).run(set);

    RunnerOptions parallel_opts;
    parallel_opts.jobs = 4;
    ResultSink sink("determinism");
    const auto parallel =
        ExperimentRunner(parallel_opts).run(set, &sink);

    ASSERT_EQ(serial.size(), set.size());
    ASSERT_EQ(parallel.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        expectIdentical(serial[i], parallel[i]);

    // Sink rows arrive in grid order with baseline-relative metrics.
    const auto rows = sink.rows();
    ASSERT_EQ(rows.size(), set.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].workload, set.experiments()[i].workload);
        EXPECT_EQ(rows[i].label, set.experiments()[i].label);
        EXPECT_TRUE(rows[i].hasBaseline);
    }
    // Baseline rows: speedup exactly 1.
    for (const auto &row : rows) {
        if (row.label == "baseline") {
            EXPECT_EQ(row.speedup, 1.0);
        }
    }
}

TEST(ExperimentRunnerTest, EffectiveJobsClampsToGridSize)
{
    RunnerOptions opts;
    opts.jobs = 16;
    ExperimentRunner engine(opts);
    EXPECT_EQ(engine.effectiveJobs(3), 3u);
    EXPECT_EQ(engine.effectiveJobs(100), 16u);
    EXPECT_EQ(engine.effectiveJobs(0), 1u);
}

TEST(ExperimentRunnerTest, EmptyGridReturnsEmpty)
{
    ExperimentSet set;
    EXPECT_TRUE(ExperimentRunner().run(set).empty());
}

} // namespace
} // namespace shotgun
