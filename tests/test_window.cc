/**
 * @file
 * Tests for the windowed simulation subsystem (src/window/ plus its
 * sim/trace/service hooks). The load-bearing property: a
 * full-coverage window plan -- contiguous windows, warm-up equal to
 * the preceding prefix -- stitches into a SimResult numerically
 * identical to the monolithic run, for synthetic presets and
 * recorded traces, one experiment or several as concurrent jobs on
 * one pool, and a trace too large to decode that streams from its
 * file. Plus: merge permutation-invariance, resumed windows, death
 * tests for malformed plans and the window's wire validation. A
 * hand-built windowed config sent to a
 * daemon is tested in test_service.cc and test_fleet.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "obs/metrics.hh"
#include "obs/uarch.hh"
#include "runner/experiment.hh"
#include "runner/grid_scheduler.hh"
#include "service/codec.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "sim/stats_delta.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"
#include "window/window_plan.hh"
#include "window/windowed_runner.hh"

namespace shotgun
{
namespace
{

using window::contiguousPlan;
using window::expandPlan;
using window::runWindowedExperiment;
using window::stitchWindows;
using window::validateFullCoverage;
using window::WindowPlan;

constexpr std::uint64_t kWarmup = 20000;
constexpr std::uint64_t kMeasure = 50000;

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

SimConfig
quickConfig(const WorkloadPreset &preset, SchemeType type)
{
    SimConfig config = SimConfig::make(preset, type);
    config.warmupInstructions = kWarmup;
    config.measureInstructions = kMeasure;
    return config;
}

runner::Experiment
experimentFor(const WorkloadPreset &preset, SchemeType type)
{
    runner::Experiment exp;
    exp.workload = preset.name;
    exp.label = schemeTypeName(type);
    exp.config = quickConfig(preset, type);
    return exp;
}

/** runWindowedExperiment on a pool of its own with `workers` threads. */
window::WindowedOutcome
runOnPool(const runner::Experiment &exp, const WindowPlan &plan,
          unsigned workers)
{
    runner::GridScheduler scheduler{runner::GridScheduler::Options(workers)};
    return runWindowedExperiment(exp, plan, scheduler);
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
    EXPECT_TRUE(a == b);
}

// --------------------------------------------------------- WindowPlan

TEST(WindowPlanTest, ContiguousPlanPartitionsTheMeasureRegion)
{
    const SimConfig config =
        quickConfig(tinyPreset("plan", 1), SchemeType::Baseline);
    for (unsigned n : {1u, 3u, 7u}) {
        const WindowPlan plan = contiguousPlan(config, n);
        ASSERT_EQ(plan.windows.size(), n);
        EXPECT_EQ(plan.warmupInstructions, kWarmup);
        validateFullCoverage(plan, config); // must not die
        std::uint64_t covered = 0;
        for (const SimWindow &w : plan.windows) {
            EXPECT_EQ(w.measureStart, covered);
            covered = w.measureEnd;
        }
        EXPECT_EQ(covered, kMeasure);
    }
}

TEST(WindowPlanTest, ExpandedConfigsCarryDistinctWindows)
{
    const SimConfig config =
        quickConfig(tinyPreset("plan", 2), SchemeType::Shotgun);
    const WindowPlan plan = contiguousPlan(config, 4);
    const std::vector<SimConfig> configs = expandPlan(config, plan);
    ASSERT_EQ(configs.size(), 4u);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_TRUE(configs[i].window.enabled());
        EXPECT_EQ(configs[i].window, plan.windows[i]);
        EXPECT_EQ(configs[i].measureInstructions, kMeasure);
        EXPECT_EQ(configs[i].warmupInstructions, kWarmup);
    }
}

TEST(WindowPlanDeathTest, MalformedPlansDie)
{
    const SimConfig config =
        quickConfig(tinyPreset("bad-plan", 3), SchemeType::Baseline);

    EXPECT_DEATH(contiguousPlan(config, 0), "at least 1 window");

    // Gapped: window 1 starts after window 0 ends.
    WindowPlan gapped = contiguousPlan(config, 2);
    gapped.windows[1].measureStart += 10;
    EXPECT_DEATH(validateFullCoverage(gapped, config),
                 "gapped window plan");

    // Overlapping: window 1 starts before window 0 ends.
    WindowPlan overlapping = contiguousPlan(config, 2);
    overlapping.windows[1].measureStart -= 10;
    EXPECT_DEATH(validateFullCoverage(overlapping, config),
                 "overlapping window plan");

    // Short coverage: the last window stops early.
    WindowPlan short_plan = contiguousPlan(config, 2);
    short_plan.windows[1].measureEnd -= 1;
    EXPECT_DEATH(validateFullCoverage(short_plan, config), "covers");

    // A shorter warm-up cannot reproduce the monolithic prefix.
    WindowPlan cold = contiguousPlan(config, 2);
    cold.warmupInstructions /= 2;
    EXPECT_DEATH(validateFullCoverage(cold, config), "warm-up");
}

TEST(WindowDeathTest, RunSimulationRejectsInvalidWindows)
{
    SimConfig config =
        quickConfig(tinyPreset("bad-window", 4), SchemeType::Baseline);
    config.window.measureStart = 10;
    config.window.measureEnd = 10;
    EXPECT_DEATH(runSimulation(config), "invalid simulation window");

    SimConfig start_only =
        quickConfig(tinyPreset("bad-window", 4), SchemeType::Baseline);
    start_only.window.measureStart = 100;
    EXPECT_DEATH(runSimulation(start_only), "without a window");
}

// ----------------------------------------------------- exact stitching

TEST(WindowStitchTest, FullCoverageMatchesMonolithicAcrossPresets)
{
    // Three real presets (smallest, a web-frontend and an OLTP one)
    // with quick run lengths, through the paper's headline scheme.
    for (const WorkloadId id :
         {WorkloadId::Nutch, WorkloadId::Streaming,
          WorkloadId::Oracle}) {
        const WorkloadPreset preset = makePreset(id);
        const runner::Experiment exp =
            experimentFor(preset, SchemeType::Shotgun);
        const SimResult mono = runSimulation(exp.config);

        const WindowPlan plan = contiguousPlan(exp.config, 4);
        const window::WindowedOutcome outcome = runOnPool(exp, plan, 2);
        expectIdentical(outcome.stitched, mono);
    }
}

TEST(WindowStitchTest, UnevenAndSingleWindowPlansMatchToo)
{
    const WorkloadPreset preset = tinyPreset("uneven", 5);
    const runner::Experiment exp =
        experimentFor(preset, SchemeType::Boomerang);
    const SimResult mono = runSimulation(exp.config);

    // 7 does not divide 50000: earlier windows take the remainder.
    for (unsigned n : {1u, 7u}) {
        const window::WindowedOutcome outcome =
            runOnPool(exp, contiguousPlan(exp.config, n), 3);
        expectIdentical(outcome.stitched, mono);
    }
}

TEST(WindowStitchTest, FullCoverageMatchesMonolithicForRecordedTrace)
{
    // Record a trace and window the replayed workload: the stitched
    // result must equal the monolithic replay.
    const WorkloadPreset recorded = tinyPreset("win-trace", 6);
    const std::string path = "/tmp/shotgun_test_window.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 11);
    recordTraceInstructions(gen, recorded, 11, path,
                            kWarmup + kMeasure + 20000);

    const WorkloadPreset preset = presetByName("trace:" + path);
    const runner::Experiment exp =
        experimentFor(preset, SchemeType::Shotgun);
    const SimResult mono = runSimulation(exp.config);

    const window::WindowedOutcome outcome =
        runOnPool(exp, contiguousPlan(exp.config, 3), 3);
    expectIdentical(outcome.stitched, mono);

    std::remove(path.c_str());
}

TEST(WindowStitchTest, MergeIsPermutationInvariant)
{
    // The property the distributed stitch rests on: whatever order
    // windows come back in (worker interleaving, a requeue after a
    // death), merging their deltas in any permutation gives
    // the monolithic counters.
    const WorkloadPreset preset = tinyPreset("perm", 7);
    SimConfig config = quickConfig(preset, SchemeType::Shotgun);
    const SimulationDelta mono = runSimulationDelta(config);

    const WindowPlan plan = contiguousPlan(config, 4);
    std::vector<SimulationDelta> deltas;
    for (const SimConfig &sub : expandPlan(config, plan))
        deltas.push_back(runSimulationDelta(sub));

    std::vector<std::size_t> order{0, 1, 2, 3};
    int permutations = 0;
    do {
        StatsDelta merged;
        for (const std::size_t i : order)
            merge(merged, deltas[i].stats);
        ASSERT_TRUE(merged == mono.stats)
            << "permutation " << permutations;
        ++permutations;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(permutations, 24);

    // And the stitched (window-ordered) result equals the finalized
    // monolithic delta.
    expectIdentical(stitchWindows(deltas),
                    finalizeResult(mono.workload, mono.scheme,
                                   mono.schemeStorageBits,
                                   mono.stats));
}

// ------------------------------------------------ uarch probe stitching

TEST(WindowStitchTest, UarchBreakdownStitchesExactlyAcrossSchemes)
{
    // Probes on, all six schemes: the stitched breakdown must equal
    // the monolithic one bit for bit (stall counters subtract and
    // merge exactly; the miss-site sketches run eviction-free at
    // these sizes, so per-window tables merge into the monolithic
    // tables), and every result -- monolithic, stitched, and each
    // window delta -- must satisfy the conservation invariant.
    //
    // The program is kept smaller than tinyPreset: schemes without
    // BTB prefill (baseline/FDIP/RDIP) take a cold BTB miss at every
    // static branch site, and the monolithic run's site population
    // must stay under the sketch's 512 slots for the exact regime
    // the bit-for-bit comparison relies on.
    WorkloadPreset preset = tinyPreset("uarch", 12);
    preset.program.numFuncs = 40;
    preset.program.numOsFuncs = 8;
    for (const SchemeType type :
         {SchemeType::Baseline, SchemeType::FDIP,
          SchemeType::Boomerang, SchemeType::Confluence,
          SchemeType::Shotgun, SchemeType::RDIP}) {
        runner::Experiment exp = experimentFor(preset, type);
        exp.config.core.uarchProbes = true;
        const SimResult mono = runSimulation(exp.config);
        ASSERT_TRUE(mono.uarch.enabled) << exp.label;
        EXPECT_TRUE(mono.uarch.conserves(mono.cycles)) << exp.label;
        // A probed run actually profiles: the tiny preset misses in
        // the L1-I, so its hot-site table cannot be empty.
        EXPECT_FALSE(mono.uarch.l1iMissSites.empty()) << exp.label;

        const window::WindowedOutcome outcome =
            runOnPool(exp, contiguousPlan(exp.config, 4), 2);
        EXPECT_TRUE(outcome.stitched.uarch == mono.uarch)
            << exp.label;
        expectIdentical(outcome.stitched, mono);
        EXPECT_TRUE(
            outcome.stitched.uarch.conserves(outcome.stitched.cycles))
            << exp.label;
        for (const SimulationDelta &w : outcome.windows)
            EXPECT_TRUE(w.stats.uarch.conserves(w.stats.cycles))
                << exp.label;
    }
}

TEST(WindowStitchTest, UarchBreakdownStitchesForRecordedTrace)
{
    // Same property on a recorded trace replay: record, replay
    // probed, window it, and compare against the monolithic probed
    // replay.
    const WorkloadPreset recorded = tinyPreset("uarch-trace", 13);
    const std::string path = "/tmp/shotgun_test_uarch_window.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 17);
    recordTraceInstructions(gen, recorded, 17, path,
                            kWarmup + kMeasure + 20000);

    const WorkloadPreset preset = presetByName("trace:" + path);
    runner::Experiment exp =
        experimentFor(preset, SchemeType::Shotgun);
    exp.config.core.uarchProbes = true;
    const SimResult mono = runSimulation(exp.config);
    ASSERT_TRUE(mono.uarch.enabled);
    EXPECT_TRUE(mono.uarch.conserves(mono.cycles));

    const window::WindowedOutcome outcome =
        runOnPool(exp, contiguousPlan(exp.config, 3), 3);
    EXPECT_TRUE(outcome.stitched.uarch == mono.uarch);
    expectIdentical(outcome.stitched, mono);

    std::remove(path.c_str());
}

TEST(WindowStitchTest, ProbesAreTrajectoryInvisible)
{
    // The other half of the contract: enabling the probes must not
    // change a single simulated counter. Compare probed vs probe-free
    // runs of the same config field by field (everything except the
    // uarch member itself must match).
    const WorkloadPreset preset = tinyPreset("uarch-off", 14);
    for (const SchemeType type :
         {SchemeType::Baseline, SchemeType::Shotgun}) {
        SimConfig off = quickConfig(preset, type);
        SimConfig on = off;
        on.core.uarchProbes = true;
        const SimResult r_off = runSimulation(off);
        SimResult r_on = runSimulation(on);
        EXPECT_FALSE(r_off.uarch.enabled);
        EXPECT_TRUE(r_on.uarch.enabled);
        // Blank the probe payload; all simulation counters must then
        // compare bitwise equal.
        r_on.uarch = obs::UarchBreakdown{};
        expectIdentical(r_on, r_off);
    }
}

TEST(WindowStitchDeathTest, RejectsPiecesOfDifferentRuns)
{
    const WorkloadPreset preset = tinyPreset("mixed", 8);
    SimConfig config = quickConfig(preset, SchemeType::Shotgun);
    const WindowPlan plan = contiguousPlan(config, 2);
    std::vector<SimulationDelta> deltas;
    for (const SimConfig &sub : expandPlan(config, plan))
        deltas.push_back(runSimulationDelta(sub));
    deltas[1].scheme = "boomerang"; // a piece of some other run
    EXPECT_DEATH(stitchWindows(deltas), "different run");
    EXPECT_DEATH(stitchWindows({}), "zero windows");
}

// ----------------------------------------------------- resumed windows

/**
 * The set-up every resumed-window test shares: a generator preset and
 * a trace recorded from it (written to `trace_path`), each with probes
 * off and on. `seed` keeps each test's checkpoint keys its own.
 */
std::vector<runner::Experiment>
resumeCases(const std::string &name, std::uint64_t seed,
            const std::string &trace_path)
{
    const WorkloadPreset generated = tinyPreset(name, seed);
    Program prog(generated.program);
    TraceGenerator gen(prog, seed);
    recordTraceInstructions(gen, generated, seed, trace_path,
                            kWarmup + kMeasure + 20000);
    std::vector<runner::Experiment> cases;
    for (const WorkloadPreset &preset :
         {generated, presetByName("trace:" + trace_path)}) {
        for (const bool probes : {false, true}) {
            runner::Experiment exp =
                experimentFor(preset, SchemeType::Shotgun);
            exp.config.core.uarchProbes = probes;
            cases.push_back(std::move(exp));
        }
    }
    return cases;
}

std::string
caseName(const runner::Experiment &exp)
{
    return exp.workload +
           (exp.config.core.uarchProbes ? " probed" : " unprobed");
}

/**
 * The reference a windowed run must reproduce slice for slice: one
 * uninterrupted Core, built the way runSimulationDelta builds it and
 * stepped by hand through the warmup and the measure region, with a
 * snapshot at every window boundary of `plan`.
 */
std::vector<StatsDelta>
handSteppedSlices(const SimConfig &config, const WindowPlan &plan)
{
    const Program &program = programFor(config.workload);
    std::unique_ptr<TraceSource> source;
    std::uint64_t control_seed = config.traceSeed;
    if (config.workload.tracePath.empty()) {
        source =
            std::make_unique<TraceGenerator>(program, config.traceSeed);
    } else {
        auto file =
            std::make_unique<TraceFileSource>(config.workload.tracePath);
        control_seed = file->traceSeed();
        source = std::move(file);
    }
    CoreParams core_params = config.core;
    core_params.loadFrac = config.workload.loadFrac;
    core_params.l1dMissRate = config.workload.l1dMissRate;
    core_params.llcDataMissFrac = config.workload.llcDataMissFrac;
    core_params.dataSeed =
        mix64(control_seed ^ mix64(config.workload.program.seed));
    HierarchyParams hierarchy;
    hierarchy.mesh.backgroundLoad = config.workload.backgroundLoad;

    Core core(program, *source, core_params, hierarchy, config.scheme);
    core.run(config.warmupInstructions);
    core.resetStats();
    std::vector<StatsDelta> slices;
    for (const SimWindow &w : plan.windows) {
        core.clearUarchSites();
        const StatsDelta begin = core.snapshotStats();
        core.runUntilRetired(w.measureEnd);
        slices.push_back(deltaBetween(begin, core.snapshotStats()));
    }
    return slices;
}

std::uint64_t
resumes()
{
    return obs::metrics().counter("sim.resumes")->value();
}

TEST(ResumedWindowTest, EveryWindowIsItsHandSteppedSlice)
{
    // Windows 1-3 resume the core the window before them parked; each
    // window's counters must still be exactly its slice of one
    // uninterrupted core, and the stitch the monolithic result.
    const std::string path = "/tmp/shotgun_test_resume_exact.trace";
    for (const runner::Experiment &exp :
         resumeCases("resume-exact", 61, path)) {
        SCOPED_TRACE(caseName(exp));
        const WindowPlan plan = contiguousPlan(exp.config, 4);
        const std::vector<StatsDelta> slices =
            handSteppedSlices(exp.config, plan);

        const std::uint64_t before = resumes();
        const window::WindowedOutcome outcome = runOnPool(exp, plan, 4);
        EXPECT_EQ(resumes() - before, 3u); // Windows 1, 2 and 3.

        ASSERT_EQ(outcome.windows.size(), slices.size());
        for (std::size_t w = 0; w < slices.size(); ++w)
            EXPECT_TRUE(outcome.windows[w].stats == slices[w])
                << "window " << w;
        expectIdentical(outcome.stitched, runSimulation(exp.config));
    }
    std::remove(path.c_str());
}

TEST(ResumedWindowTest, ReverseOrderRestoresAndFastForwards)
{
    // Run one by one from the last window back, no window finds its
    // predecessor parked: each restores the warmup checkpoint the
    // monolithic run captured and fast-forwards, to the same deltas.
    const std::string path = "/tmp/shotgun_test_resume_reverse.trace";
    for (const runner::Experiment &exp :
         resumeCases("resume-reverse", 67, path)) {
        SCOPED_TRACE(caseName(exp));
        const WindowPlan plan = contiguousPlan(exp.config, 4);
        const std::vector<StatsDelta> slices =
            handSteppedSlices(exp.config, plan);
        const std::vector<SimConfig> configs =
            expandPlan(exp.config, plan);
        runSimulation(exp.config);

        const std::uint64_t resumes_before = resumes();
        const MemoCacheStats before = checkpointCache().stats();
        for (std::size_t w = configs.size(); w-- > 0;)
            EXPECT_TRUE(runSimulationDelta(configs[w]).stats == slices[w])
                << "window " << w;
        const MemoCacheStats after = checkpointCache().stats();
        EXPECT_EQ(resumes(), resumes_before);
        EXPECT_EQ(after.hits, before.hits + configs.size());
        EXPECT_EQ(after.misses, before.misses);
    }
    std::remove(path.c_str());
}

TEST(ResumedWindowTest, IdenticalPlansRacingAgree)
{
    // Two identical plans on one pool race for the same parked
    // states: whichever window wins a state resumes, the other falls
    // back to restore and fast-forward, and both come out the same.
    const std::string path = "/tmp/shotgun_test_resume_race.trace";
    for (const runner::Experiment &exp :
         resumeCases("resume-race", 71, path)) {
        SCOPED_TRACE(caseName(exp));
        const WindowPlan plan = contiguousPlan(exp.config, 4);
        const std::vector<StatsDelta> slices =
            handSteppedSlices(exp.config, plan);

        runner::GridScheduler scheduler(
            runner::GridScheduler::Options{4});
        window::WindowedOutcome a, b;
        std::thread first([&]() {
            a = runWindowedExperiment(exp, plan, scheduler);
        });
        std::thread second([&]() {
            b = runWindowedExperiment(exp, plan, scheduler);
        });
        first.join();
        second.join();

        ASSERT_EQ(a.windows.size(), slices.size());
        ASSERT_EQ(b.windows.size(), slices.size());
        for (std::size_t w = 0; w < slices.size(); ++w) {
            EXPECT_TRUE(a.windows[w].stats == slices[w]) << "window " << w;
            EXPECT_TRUE(b.windows[w].stats == slices[w]) << "window " << w;
        }
        expectIdentical(a.stitched, b.stitched);
        expectIdentical(a.stitched, runSimulation(exp.config));
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------ windowed grid

TEST(WindowedGridTest, EveryExperimentStitchesToItsMonolithicRun)
{
    // Two presets by two schemes, three windows each, run as four
    // jobs from four threads on one scheduler (perfbench's shape):
    // each experiment warms once (a checkpoint miss) and its windows
    // 1 and 2 resume the core the window before them parked (two
    // hits).
    std::vector<runner::Experiment> grid;
    for (const std::uint64_t seed : {91u, 93u}) {
        const WorkloadPreset preset =
            tinyPreset("grid-" + std::to_string(seed), seed);
        for (const SchemeType type :
             {SchemeType::Baseline, SchemeType::Shotgun})
            grid.push_back(experimentFor(preset, type));
    }

    runner::GridScheduler scheduler{runner::GridScheduler::Options(4)};
    const MemoCacheStats before = checkpointCache().stats();
    std::vector<window::WindowedOutcome> outcomes(grid.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        threads.emplace_back([&, i]() {
            outcomes[i] = runWindowedExperiment(
                grid[i], contiguousPlan(grid[i].config, 3), scheduler);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    const MemoCacheStats after = checkpointCache().stats();
    EXPECT_EQ(after.misses - before.misses, 4u);
    EXPECT_EQ(after.hits - before.hits, 8u);

    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE(grid[i].workload + "/" + grid[i].label);
        EXPECT_EQ(outcomes[i].windows.size(), 3u);
        expectIdentical(outcomes[i].stitched,
                        runSimulation(grid[i].config));
    }
}

// -------------------------------------------------- streaming fallback

/**
 * A copy of the recording `from` at `to` whose header claims more
 * records than the decoded-trace store takes, so every replay of it
 * streams through a TraceFileSource. The copy grows as a file hole,
 * whose records read as zero-instruction None records: the header's
 * instruction count stays true and the recorded prefix replays as
 * before, without writing the hundreds of MB the hole stands for.
 */
void
overBudgetCopy(const std::string &from, const std::string &to)
{
    namespace fs = std::filesystem;
    const std::uint64_t records = readTraceInfo(from).records;
    const std::uintmax_t header =
        fs::file_size(from) - records * kTraceRecordBytes;
    const std::uint64_t grown =
        DecodedTraceStore::kDefaultBudgetBytes / sizeof(BBRecord) + 1;
    ASSERT_GT(DecodedTrace::estimateBytes(grown),
              DecodedTraceStore::kDefaultBudgetBytes);
    ASSERT_GT(grown, records);
    fs::copy_file(from, to, fs::copy_options::overwrite_existing);
    fs::resize_file(to, header + grown * kTraceRecordBytes);
    std::fstream file(to, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(8); // The record count, little-endian.
    for (int byte = 0; byte < 8; ++byte)
        file.put(static_cast<char>((grown >> (8 * byte)) & 0xff));
    ASSERT_TRUE(file.good());
}

TEST(StreamingFallbackTest, OverBudgetTraceReplaysAsTheDecodedOne)
{
    const std::string recorded = "/tmp/shotgun_test_fallback.trace";
    const std::string grown = "/tmp/shotgun_test_fallback_grown.trace";
    const std::string damaged = "/tmp/shotgun_test_fallback_damaged.trace";
    const WorkloadPreset nutch = makePreset(WorkloadId::Nutch);
    TraceGenerator gen(programFor(nutch), 1);
    recordTraceInstructions(gen, nutch, 1, recorded,
                            kWarmup + kMeasure + 20000);
    ASSERT_NO_FATAL_FAILURE(overBudgetCopy(recorded, grown));

    // Both replays carry one display name, so their results compare
    // whole.
    const runner::Experiment decoded = experimentFor(
        presetByName("trace:" + recorded + ":fallback"),
        SchemeType::Shotgun);
    const runner::Experiment streamed = experimentFor(
        presetByName("trace:" + grown + ":fallback"), SchemeType::Shotgun);
    const SimResult reference = runSimulation(decoded.config);

    const std::size_t rejected = decodedTraces().stats().rejected;
    expectIdentical(runSimulation(streamed.config), reference);
    EXPECT_GT(decodedTraces().stats().rejected, rejected);

    // A streamed window parks its core for the next one, which resumes
    // it: windows 1 and 2.
    const std::uint64_t resumed = resumes();
    expectIdentical(
        runOnPool(streamed, contiguousPlan(streamed.config, 3), 3).stitched,
        reference);
    EXPECT_EQ(resumes() - resumed, 2u);

    // A damaged record in the recorded prefix fails the run and names
    // the record.
    ASSERT_NO_FATAL_FAILURE(overBudgetCopy(recorded, damaged));
    {
        std::fstream file(damaged,
                          std::ios::in | std::ios::out | std::ios::binary);
        const std::uintmax_t header =
            std::filesystem::file_size(recorded) -
            readTraceInfo(recorded).records * kTraceRecordBytes;
        file.seekp(static_cast<std::streamoff>(header + 5 * kTraceRecordBytes +
                                               17)); // Record 5's type.
        file.put(static_cast<char>(0xff));
        ASSERT_TRUE(file.good());
    }
    const SimConfig broken =
        experimentFor(presetByName("trace:" + damaged + ":fallback"),
                      SchemeType::Shotgun)
            .config;
    try {
        runSimulation(broken);
        ADD_FAILURE() << "a damaged record replayed";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "corrupt record 5 (bad branch type 255)"),
                  std::string::npos)
            << e.what();
    }

    for (const std::string &path : {recorded, grown, damaged})
        std::remove(path.c_str());
}

// ---------------------------------------------------------- wire codec

TEST(WindowShardingTest, DecodeRejectsDegenerateWindows)
{
    using json::Value;
    // A disabled window (measure_end 0) must not smuggle in a start;
    // an enabled one must be a non-empty range.
    for (const char *bad :
         {"{\"measure_start\":40000,\"measure_end\":0}",
          "{\"measure_start\":10,\"measure_end\":10}"}) {
        EXPECT_THROW(service::decodeSimWindow(Value::parse(bad)),
                     service::CodecError)
            << bad;
    }
    const SimWindow ok = service::decodeSimWindow(
        Value::parse("{\"measure_start\":0,\"measure_end\":100}"));
    EXPECT_TRUE(ok.enabled());
}

} // namespace
} // namespace shotgun
