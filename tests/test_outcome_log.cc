/**
 * @file
 * The shared outcome log (cpu/outcome_log.hh, sim/outcome_store.hh):
 * TAGE and the data-side draws run once per stream, whichever point
 * reaches an entry first, and every point reads the same outcomes a
 * private log gives it -- the schemes of a grid in any order, a
 * window plan resuming from the monolithic run's checkpoint, and a
 * restored point. A reader whose stream is not its log's panics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "obs/metrics.hh"
#include "runner/experiment.hh"
#include "sim/outcome_store.hh"
#include "sim/simulator.hh"
#include "sim/stats_delta.hh"
#include "window/window_plan.hh"
#include "window/windowed_runner.hh"

namespace shotgun
{
namespace
{

constexpr std::uint64_t kWarmup = 20000;
constexpr std::uint64_t kMeasure = 50000;

const SchemeType kSchemes[] = {
    SchemeType::Baseline,   SchemeType::FDIP,    SchemeType::Boomerang,
    SchemeType::Confluence, SchemeType::Shotgun, SchemeType::RDIP,
};

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

SimConfig
quickConfig(const WorkloadPreset &preset, SchemeType type,
            std::uint64_t trace_seed)
{
    SimConfig config = SimConfig::make(preset, type);
    config.warmupInstructions = kWarmup;
    config.measureInstructions = kMeasure;
    config.traceSeed = trace_seed;
    return config;
}

/** The process-wide sim.outcomes.* counters. */
struct OutcomeCounts
{
    std::uint64_t produced = 0;
    std::uint64_t reused = 0;
};

OutcomeCounts
outcomeCounts()
{
    obs::Registry &reg = obs::metrics();
    return {reg.counter("sim.outcomes.produced")->value(),
            reg.counter("sim.outcomes.reused")->value()};
}

/** A point run as runSimulation runs it, but on a private log. */
struct PrivateRun
{
    SimResult result;
    std::uint64_t conditionals = 0; ///< Log entries the core read.
};

PrivateRun
privateLogRun(const SimConfig &config)
{
    const Program &program = programFor(config.workload);
    TraceGenerator source(program, config.traceSeed);
    CoreParams core_params = config.core;
    core_params.loadFrac = config.workload.loadFrac;
    core_params.l1dMissRate = config.workload.l1dMissRate;
    core_params.llcDataMissFrac = config.workload.llcDataMissFrac;
    core_params.dataSeed =
        mix64(config.traceSeed ^ mix64(config.workload.program.seed));
    HierarchyParams hierarchy;
    hierarchy.mesh.backgroundLoad = config.workload.backgroundLoad;

    Core core(program, source, core_params, hierarchy, config.scheme);
    core.run(config.warmupInstructions);
    core.resetStats();
    const StatsDelta begin = core.snapshotStats();
    core.runUntilRetired(config.measureInstructions);
    PrivateRun out;
    out.result = finalizeResult(config.workload.name, core.scheme().name(),
                                core.scheme().storageBits(),
                                deltaBetween(begin, core.snapshotStats()));
    out.conditionals = core.outcomes().branchesRead();
    EXPECT_EQ(core.outcomes().branchesProduced(), out.conditionals);
    return out;
}

std::vector<runner::Experiment>
schemeGrid(const WorkloadPreset &preset, std::uint64_t trace_seed,
           const std::vector<SchemeType> &order)
{
    std::vector<runner::Experiment> grid;
    for (SchemeType type : order) {
        runner::Experiment exp;
        exp.workload = preset.name;
        exp.label = schemeTypeName(type);
        exp.config = quickConfig(preset, type, trace_seed);
        grid.push_back(std::move(exp));
    }
    return grid;
}

// ----------------------------------------------------------- sharing

TEST(OutcomeLogTest, SchemesShareOneLogInEitherSubmissionOrder)
{
    // Each order gets its own stream, so neither restores the other's
    // checkpoints and each produces its log from scratch.
    const WorkloadPreset preset = tinyPreset("outcome-share", 31);
    std::vector<SchemeType> forward(std::begin(kSchemes),
                                    std::end(kSchemes));
    std::vector<SchemeType> reversed(forward.rbegin(), forward.rend());
    const std::pair<std::uint64_t, std::vector<SchemeType>> orders[] = {
        {11, forward}, {12, reversed}};

    runner::RunnerOptions options;
    options.jobs = 4;
    for (const auto &[trace_seed, order] : orders) {
        const std::vector<runner::Experiment> grid =
            schemeGrid(preset, trace_seed, order);
        const OutcomeCounts before = outcomeCounts();
        const std::vector<SimResult> shared =
            runner::ExperimentRunner(options).run(grid);
        const OutcomeCounts after = outcomeCounts();

        std::uint64_t most = 0;
        std::uint64_t total = 0;
        ASSERT_EQ(shared.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const PrivateRun alone = privateLogRun(grid[i].config);
            EXPECT_TRUE(shared[i] == alone.result) << grid[i].label;
            most = std::max(most, alone.conditionals);
            total += alone.conditionals;
        }
        // TAGE ran once per conditional of the stream: as far as the
        // point that ran furthest ahead read it. Every other read was
        // a reuse -- 5x the stream, short of each point's run-ahead.
        EXPECT_EQ(after.produced - before.produced, most);
        EXPECT_EQ(after.reused - before.reused, total - most);
        EXPECT_GT(after.reused - before.reused,
                  5 * most - 5 * most / 100);
    }
}

TEST(OutcomeLogTest, WindowsAndRestoredPointsReadTheMonolithicLog)
{
    const SimConfig config = quickConfig(
        tinyPreset("outcome-windows", 37), SchemeType::Shotgun, 5);
    const OutcomeCounts before = outcomeCounts();
    const SimResult mono = runSimulation(config);
    const OutcomeCounts after_mono = outcomeCounts();
    EXPECT_EQ(after_mono.produced - before.produced,
              privateLogRun(config).conditionals);
    EXPECT_EQ(after_mono.reused, before.reused);

    // Window 0 restores the monolithic run's warmup checkpoint and
    // windows 1-3 resume the core parked before them: every one reads
    // the log the monolithic run produced, and none adds to it.
    runner::Experiment exp;
    exp.workload = config.workload.name;
    exp.label = "shotgun";
    exp.config = config;
    runner::GridScheduler scheduler{runner::GridScheduler::Options(4)};
    const window::WindowedOutcome windowed = window::runWindowedExperiment(
        exp, window::contiguousPlan(config, 4), scheduler);
    EXPECT_TRUE(windowed.stitched == mono);
    const OutcomeCounts after_windows = outcomeCounts();
    EXPECT_EQ(after_windows.produced, after_mono.produced);
    EXPECT_GT(after_windows.reused, after_mono.reused);

    // A shorter point of the same stream restores the same checkpoint.
    SimConfig shorter = config;
    shorter.measureInstructions = kMeasure / 2;
    EXPECT_TRUE(runSimulation(shorter) == privateLogRun(shorter).result);
    const OutcomeCounts after_restore = outcomeCounts();
    EXPECT_EQ(after_restore.produced, after_mono.produced);
    EXPECT_GT(after_restore.reused, after_windows.reused);
}

// ------------------------------------------------------------ cursor

TEST(OutcomeLogTest, MissesAreTheBackendsPerInstructionDraws)
{
    CoreParams params;
    params.dataSeed = 0xfeed;
    params.loadFrac = 0.5;
    params.l1dMissRate = 0.2;
    constexpr std::uint64_t kInstructions =
        3 * OutcomeLog::kDrawInstructions + 123;

    // The reference: the backend's draws one instruction at a time, in
    // retire order -- does it load, does it miss the L1-D, does the
    // miss go to memory.
    Rng rng(params.dataSeed);
    std::vector<std::pair<std::uint64_t, bool>> expected;
    for (std::uint64_t i = 0; i < kInstructions; ++i) {
        if (rng.draw(Rng::threshold(params.loadFrac)) &&
            rng.draw(Rng::threshold(params.l1dMissRate))) {
            expected.emplace_back(
                i, rng.draw(Rng::threshold(params.llcDataMissFrac)));
        }
    }
    ASSERT_GT(expected.size(), OutcomeLog::kChunkEntries);

    // Two cursors on one log retire in different group sizes,
    // interleaved, so each in turn produces and reads the other's
    // chunks; a copy taken midway reads on like the original.
    auto log = std::make_shared<OutcomeLog>(params);
    OutcomeCursor single(log);
    OutcomeCursor grouped(log);
    std::vector<std::pair<std::uint64_t, bool>> got_single;
    std::vector<std::pair<std::uint64_t, bool>> got_grouped;
    std::vector<std::pair<std::uint64_t, bool>> got_copy;
    std::unique_ptr<OutcomeCursor> copy;
    std::uint64_t copy_from = 0;
    for (std::uint64_t i = 0; i < kInstructions; ++i) {
        single.retire(1, [&](bool to_memory) {
            got_single.emplace_back(i, to_memory);
        });
        if (i % 3 == 2 || i + 1 == kInstructions) {
            const std::uint64_t first = i - i % 3;
            grouped.retire(static_cast<unsigned>(i + 1 - first),
                           [&](bool to_memory) {
                               got_grouped.emplace_back(first, to_memory);
                           });
        }
        if (i == kInstructions / 2) {
            copy = std::make_unique<OutcomeCursor>(single);
            copy_from = i + 1;
        }
    }
    for (std::uint64_t i = copy_from; i < kInstructions; ++i) {
        copy->retire(1, [&](bool to_memory) {
            got_copy.emplace_back(i, to_memory);
        });
    }

    EXPECT_EQ(got_single, expected);
    ASSERT_EQ(got_grouped.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(got_grouped[k].first, expected[k].first / 3 * 3);
        EXPECT_EQ(got_grouped[k].second, expected[k].second);
    }
    const auto tail = std::find_if(
        expected.begin(), expected.end(),
        [&](const auto &miss) { return miss.first >= copy_from; });
    const std::vector<std::pair<std::uint64_t, bool>> expected_tail(
        tail, expected.end());
    EXPECT_EQ(got_copy, expected_tail);
}

TEST(OutcomeLogTest, ConditionalsAreTageOnTheStream)
{
    // Mispredicts read back from a log equal a private TAGE's, for the
    // core that produced them and for one that only reads.
    const Program &program = programFor(tinyPreset("outcome-tage", 39));
    TraceGenerator gen(program, 3);
    TagePredictor tage;
    auto log = std::make_shared<OutcomeLog>(CoreParams{});
    OutcomeCursor producer(log);
    std::vector<std::pair<Addr, bool>> branches;
    std::vector<bool> mispredicts;
    BBRecord rec;
    while (branches.size() < 2 * OutcomeLog::kChunkEntries + 7) {
        gen.next(rec);
        if (rec.type != BranchType::Conditional)
            continue;
        const Addr pc = rec.branchPC();
        const bool predicted = tage.predict(pc);
        tage.update(pc, rec.taken);
        branches.emplace_back(pc, rec.taken);
        mispredicts.push_back(predicted != rec.taken);
        EXPECT_EQ(producer.mispredicts(pc, rec.taken), mispredicts.back());
    }
    OutcomeCursor reader(log);
    for (std::size_t i = 0; i < branches.size(); ++i) {
        EXPECT_EQ(reader.mispredicts(branches[i].first,
                                     branches[i].second),
                  mispredicts[i]);
    }
    EXPECT_EQ(producer.branchesProduced(), branches.size());
    EXPECT_EQ(reader.branchesProduced(), 0u);
    EXPECT_EQ(reader.branchesRead(), branches.size());
}

TEST(OutcomeLogDeathTest, AReaderOfAnotherStreamPanics)
{
    const Program &program = programFor(tinyPreset("outcome-guard", 43));
    const CoreParams params;
    auto log = std::make_shared<OutcomeLog>(params);
    TraceGenerator first(program, 1);
    Core producer(program, first, params, HierarchyParams{},
                  SchemeConfig{}, log);
    producer.run(20000);

    EXPECT_DEATH(
        {
            TraceGenerator other(program, 2);
            Core reader(program, other, params, HierarchyParams{},
                        SchemeConfig{}, log);
            reader.run(20000);
        },
        "outcome log: conditional [0-9]+ is branch fold");

    CoreParams reseeded = params;
    reseeded.dataSeed ^= 1;
    EXPECT_DEATH(
        {
            TraceGenerator same(program, 1);
            Core reader(program, same, reseeded, HierarchyParams{},
                        SchemeConfig{}, log);
        },
        "data-side draws");
}

// ------------------------------------------------------ key and store

TEST(OutcomeLogTest, KeyCoversTheStreamAndNothingElse)
{
    const SimConfig base =
        quickConfig(tinyPreset("outcome-key", 47), SchemeType::Shotgun, 9);
    const std::string key = outcomeKey(base, nullptr);

    SimConfig same = base;
    same.scheme = SchemeConfig{};
    same.scheme.type = SchemeType::Confluence;
    same.core.issueEfficiency = 0.75;
    same.core.uarchProbes = true;
    same.warmupInstructions *= 2;
    same.measureInstructions *= 3;
    same.window.measureStart = 10;
    same.window.measureEnd = 20;
    EXPECT_EQ(outcomeKey(same, nullptr), key);

    SimConfig seeded = base;
    seeded.traceSeed += 1;
    SimConfig skipped = base;
    skipped.window.skipInstructions = 1000;
    SimConfig program = base;
    program.workload.program.zipfAlpha += 0.01;
    SimConfig loads = base;
    loads.workload.loadFrac += 0.01;
    for (const SimConfig &other : {seeded, skipped, program, loads})
        EXPECT_NE(outcomeKey(other, nullptr), key);

    TraceInfo trace;
    trace.preset = base.workload;
    trace.traceSeed = 9;
    trace.records = 100;
    trace.instructions = 500;
    TraceInfo rerecorded = trace;
    rerecorded.records += 1;
    EXPECT_NE(outcomeKey(base, &trace), key);
    EXPECT_NE(outcomeKey(base, &trace), outcomeKey(base, &rerecorded));
}

TEST(OutcomeLogTest, StoreSharesALogOnlyWhileItIsHeld)
{
    const CoreParams params;
    OutcomeLogStore store;
    {
        OutcomeCursor first(store.acquire("a", params));
        EXPECT_FALSE(first.mispredicts(0x1000, true));
        OutcomeCursor second(store.acquire("a", params));
        EXPECT_FALSE(second.mispredicts(0x1000, true));
        EXPECT_EQ(second.branchesProduced(), 0u);
        OutcomeCursor other(store.acquire("b", params));
        other.mispredicts(0x1000, true);
        EXPECT_EQ(other.branchesProduced(), 1u);
    }
    // Nobody holds "a" any more, and the store keeps nothing alive: the
    // key starts a new log.
    OutcomeCursor later(store.acquire("a", params));
    later.mispredicts(0x1000, true);
    EXPECT_EQ(later.branchesProduced(), 1u);
}

} // namespace
} // namespace shotgun
