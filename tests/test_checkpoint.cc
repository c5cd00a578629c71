/**
 * @file
 * Warmed-state checkpoints and the shared decoded-trace store: the
 * machinery the one-pass multi-config pipeline rests on. The tests
 * pin the contract down from below (key separation, LRU accounting,
 * cursor/file stream equivalence) and from above (a restored run is
 * bitwise identical to an uninterrupted one; a cohort-batched grid
 * emits exactly the bytes a point-at-a-time loop does; one trace
 * file decodes once no matter how many cores replay it).
 *
 * The checkpoint cache and decoded-trace store are process-wide
 * singletons, so each test uses uniquely named/seeded presets --
 * the hit/miss deltas asserted below are then exact, not merely
 * lower bounds, and tests stay order-independent.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/random.hh"
#include "obs/metrics.hh"
#include "runner/experiment.hh"
#include "service/codec.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/presets.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"
#include "window/window_plan.hh"
#include "window/windowed_runner.hh"

namespace
{

/** While non-null, operator new on this thread adds its sizes here. */
thread_local std::size_t *allocatedBytes = nullptr;

} // namespace

// Counting global allocation functions: the honest-charge test below
// measures the heap a checkpoint capture allocates with them. They are
// kept out of line, so the compiler pairs each free() with the malloc()
// here rather than with a call site's new.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (allocatedBytes != nullptr)
        *allocatedBytes += size;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace shotgun
{
namespace
{

constexpr std::uint64_t kWarmup = 20000;
constexpr std::uint64_t kMeasure = 50000;

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

/** The byte-identity oracle: field-exact (doubles compared with ==). */
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

/** The schemes a speedup sweep runs -- Ideal excluded, like fig7. */
const SchemeType kGridSchemes[] = {
    SchemeType::Baseline,   SchemeType::FDIP,
    SchemeType::Boomerang,  SchemeType::Confluence,
    SchemeType::Shotgun,    SchemeType::RDIP,
};

// ------------------------------------------------------------- keys

TEST(CheckpointKeyTest, SchemeWarmupAndSeedSeparateKeys)
{
    const WorkloadPreset preset = tinyPreset("key-base", 3);
    const SimConfig base = quickConfig(preset, SchemeType::Shotgun);

    // Warmed state is scheme-visible (prefetches change cache and
    // timing state), so every scheme knob must split the key.
    SimConfig other_scheme = base;
    other_scheme.scheme = SchemeConfig{};
    other_scheme.scheme.type = SchemeType::Boomerang;
    EXPECT_NE(checkpointKey(base, nullptr),
              checkpointKey(other_scheme, nullptr));

    SimConfig resized = base;
    resized.scheme.shotgun.cbtbEntries *= 2;
    EXPECT_NE(checkpointKey(base, nullptr),
              checkpointKey(resized, nullptr));

    SimConfig longer_warmup = base;
    longer_warmup.warmupInstructions += 1;
    EXPECT_NE(checkpointKey(base, nullptr),
              checkpointKey(longer_warmup, nullptr));

    SimConfig other_seed = base;
    other_seed.traceSeed += 1;
    EXPECT_NE(checkpointKey(base, nullptr),
              checkpointKey(other_seed, nullptr));
}

TEST(CheckpointKeyTest, WindowSubPointsShareTheKey)
{
    // measureStart/measureEnd and the measure length pick what is
    // *measured after* the warmup; they must not split the key, or
    // windowed plans would re-warm per window and a monolithic run
    // would not share its windows' warmup. skipInstructions changes
    // what is warmed over and must split it.
    const WorkloadPreset preset = tinyPreset("key-window", 4);
    const SimConfig monolithic = quickConfig(preset, SchemeType::Shotgun);
    SimConfig w1 = monolithic;
    w1.window.measureStart = 0;
    w1.window.measureEnd = kMeasure / 2;
    SimConfig w2 = w1;
    w2.window.measureStart = kMeasure / 2;
    w2.window.measureEnd = kMeasure;
    SimConfig longer = monolithic;
    longer.measureInstructions = 2 * kMeasure;
    EXPECT_EQ(checkpointKey(w1, nullptr), checkpointKey(w2, nullptr));
    EXPECT_EQ(checkpointKey(w1, nullptr),
              checkpointKey(monolithic, nullptr));
    EXPECT_EQ(checkpointKey(w1, nullptr),
              checkpointKey(longer, nullptr));

    SimConfig sampled = w1;
    sampled.window.skipInstructions = 1000;
    EXPECT_NE(checkpointKey(w1, nullptr),
              checkpointKey(sampled, nullptr));
}

TEST(CheckpointKeyTest, TraceHeaderBindsTheKey)
{
    // A re-recorded file under the same path must miss: the key
    // covers the header counters, not just the path.
    const WorkloadPreset preset = tinyPreset("key-trace", 5);
    const SimConfig config = quickConfig(preset, SchemeType::Shotgun);
    TraceInfo info;
    info.traceSeed = 7;
    info.records = 1000;
    info.instructions = 9000;
    TraceInfo rerecorded = info;
    rerecorded.records = 1001;
    rerecorded.instructions = 9010;
    EXPECT_NE(checkpointKey(config, &info),
              checkpointKey(config, &rerecorded));
    EXPECT_NE(checkpointKey(config, &info),
              checkpointKey(config, nullptr));
}

// ------------------------------------------------- cache accounting

/**
 * A capture of `bytes` for the accounting tests. Entries carry their
 * byte cost in cp.bytes, so a null core is fine there (real
 * checkpoints are exercised by the end-to-end tests below).
 */
CoreCheckpoint
entry(std::size_t bytes)
{
    CoreCheckpoint cp;
    cp.bytes = bytes;
    return cp;
}

TEST(CheckpointCacheTest, LruAccountingAndEviction)
{
    CheckpointCache cache(100);

    EXPECT_EQ(cache.acquire("a", 0).warmed, nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.put("a", entry(40));
    cache.put("b", entry(40));
    EXPECT_NE(cache.acquire("a", 0).warmed, nullptr); // Touch: a is MRU.
    cache.put("c", entry(40));                         // Evicts b, the LRU.

    const MemoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, 100u);
    EXPECT_EQ(cache.acquire("b", 0).warmed, nullptr);
    EXPECT_NE(cache.acquire("a", 0).warmed, nullptr);
    EXPECT_NE(cache.acquire("c", 0).warmed, nullptr);
}

TEST(CheckpointCacheTest, DefaultBudgetHoldsOneOffCapturesTo64MiB)
{
    // A daemon fed fresh configs stores warmups that no run restores.
    // The default budget bounds what they keep alive at 64 MiB, which
    // still holds a 36-point grid's captures at 2M warm-up (about
    // 57 MB): oldest dropped first, each drop an eviction.
    constexpr std::size_t kMiB = 1024 * 1024;
    CheckpointCache cache;
    for (int i = 0; i < 128; ++i)
        cache.put("once" + std::to_string(i), entry(kMiB));

    const MemoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.budgetBytes, 64 * kMiB);
    EXPECT_EQ(stats.bytes, 64 * kMiB);
    EXPECT_EQ(stats.entries, 64u);
    EXPECT_EQ(stats.evictions, 64u);
    EXPECT_EQ(cache.acquire("once63", 0).warmed, nullptr);
    EXPECT_NE(cache.acquire("once64", 0).warmed, nullptr);
}

/** A live core on a generator of `program`, charged its real size. */
ParkedCore
parkedCore(const Program &program)
{
    auto source = std::make_unique<TraceGenerator>(program, 1);
    auto core = std::make_unique<Core>(program, *source, CoreParams{},
                                       HierarchyParams{}, SchemeConfig{});
    return parkCore(std::move(core), std::move(source));
}

TEST(CheckpointCacheTest, ParkedCoreResumesOnceAtItsPositionOnly)
{
    const Program &program = programFor(tinyPreset("parked-exact", 57));
    const std::size_t bytes = parkedCore(program).bytes;
    CheckpointCache cache(4 * bytes);
    CoreCheckpoint warmed;
    warmed.bytes = bytes;
    cache.put("k", warmed);

    cache.park("k", 100, parkedCore(program));
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().bytes, 2 * bytes);
    // Another position leaves the parked core for its successor.
    StoredState other = cache.acquire("k", 50);
    EXPECT_EQ(other.parked.core, nullptr);
    EXPECT_NE(other.warmed, nullptr);
    StoredState mine = cache.acquire("k", 100);
    EXPECT_NE(mine.parked.core, nullptr);
    EXPECT_EQ(mine.warmed, nullptr);
    // Moved out: a second run from 100 restores the warmup instead.
    EXPECT_EQ(cache.acquire("k", 100).parked.core, nullptr);

    // One parked state per key: the newer park replaces the older.
    cache.park("k", 100, parkedCore(program));
    cache.park("k", 200, parkedCore(program));
    EXPECT_EQ(cache.acquire("k", 100).parked.core, nullptr);
    EXPECT_NE(cache.acquire("k", 200).parked.core, nullptr);

    // Every acquire counted exactly one hit (none missed).
    const MemoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 5u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytes, bytes);
}

TEST(CheckpointCacheTest, BudgetForFewerThanTwoCoresEvictsParkedStates)
{
    // Room for one core and a half: the warmup checkpoint fits, a
    // parked core beside it does not, and it is the parked core that
    // goes -- its successor falls back to the checkpoint.
    const Program &program = programFor(tinyPreset("parked-budget", 59));
    const std::size_t bytes = parkedCore(program).bytes;
    CheckpointCache cache(bytes + bytes / 2);
    CoreCheckpoint warmed;
    warmed.bytes = bytes;
    cache.put("k", warmed);

    cache.park("k", 100, parkedCore(program));
    MemoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_LE(stats.bytes, stats.budgetBytes);
    const StoredState state = cache.acquire("k", 100);
    EXPECT_EQ(state.parked.core, nullptr);
    EXPECT_NE(state.warmed, nullptr);

    // A checkpoint stored after the park evicts the parked core too.
    CheckpointCache later(bytes + bytes / 2);
    later.park("k", 100, parkedCore(program));
    EXPECT_EQ(later.stats().entries, 1u);
    later.put("k", warmed);
    stats = later.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, stats.budgetBytes);
    EXPECT_EQ(later.acquire("k", 100).parked.core, nullptr);
}

TEST(CheckpointCacheTest, ParkedCoreDisplacesOtherKeysCheckpoints)
{
    // A store full of captures still keeps a window's parked core:
    // the least recently used capture of another key goes, while the
    // parked key's own checkpoint (its successor's fallback) stays,
    // though it is the oldest.
    const Program &program = programFor(tinyPreset("parked-full", 61));
    const std::size_t bytes = parkedCore(program).bytes;
    CheckpointCache cache(3 * bytes);
    cache.put("k", entry(bytes));
    cache.put("old", entry(bytes));
    cache.put("new", entry(bytes));

    cache.park("k", 100, parkedCore(program));
    const MemoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_LE(stats.bytes, stats.budgetBytes);
    EXPECT_EQ(cache.acquire("old", 0).warmed, nullptr);
    EXPECT_NE(cache.acquire("new", 0).warmed, nullptr);
    EXPECT_NE(cache.acquire("k", 100).parked.core, nullptr);
    EXPECT_NE(cache.acquire("k", 0).warmed, nullptr);
}

TEST(CheckpointCacheTest, ChargeCoversTheHeapACaptureAllocates)
{
    // The store's budget bounds memory only if a capture is charged at
    // least the heap it allocates: the Core clone with every cache
    // line and scheme structure, and the generator checkpoint. The
    // charge also holds the outcome log the clone pins, which the
    // capture does not allocate, so the upper bound adds it; within
    // that, the charge is no more than twice the real heap.
    for (const WorkloadId id : {WorkloadId::Nutch, WorkloadId::Oracle}) {
        const WorkloadPreset preset = makePreset(id);
        const Program &program = programFor(preset);
        for (const SchemeType type : kGridSchemes) {
            SCOPED_TRACE(preset.name + "/" + schemeTypeName(type));
            TraceGenerator gen(program, 1);
            SchemeConfig scheme;
            scheme.type = type;
            Core core(program, gen, CoreParams{}, HierarchyParams{},
                      scheme);
            core.run(kWarmup);

            std::size_t heap = 0;
            allocatedBytes = &heap;
            const CoreCheckpoint cp =
                captureCheckpoint(core, &gen, nullptr);
            allocatedBytes = nullptr;
            const std::size_t log = cp.core->outcomes().logBytes();
            EXPECT_GE(cp.bytes, heap);
            EXPECT_LE(cp.bytes, 2 * heap + log);
        }
    }
}

// ------------------------------------------- decoded-trace streams

TEST(DecodedTraceTest, CursorReplaysTheFileStreamExactly)
{
    const WorkloadPreset recorded = tinyPreset("decoded-eq", 17);
    const std::string path = "/tmp/shotgun_test_decoded_eq.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 23);
    recordTraceInstructions(gen, recorded, 23, path, 40000);

    auto decoded = decodedTraces().acquire(path);
    ASSERT_NE(decoded, nullptr);
    DecodedTraceCursor cursor(decoded);
    TraceFileSource file(path);

    BBRecord from_cursor, from_file;
    std::uint64_t records = 0;
    for (;;) {
        const bool more_cursor = cursor.next(from_cursor);
        const bool more_file = file.next(from_file);
        ASSERT_EQ(more_cursor, more_file);
        if (!more_cursor)
            break;
        ASSERT_EQ(from_cursor.startAddr, from_file.startAddr);
        ASSERT_EQ(from_cursor.target, from_file.target);
        ASSERT_EQ(from_cursor.numInstrs, from_file.numInstrs);
        ASSERT_EQ(from_cursor.type, from_file.type);
        ASSERT_EQ(from_cursor.taken, from_file.taken);
        ++records;
    }
    EXPECT_EQ(records, cursor.totalRecords());

    // seekToRecord is the checkpoint-restore reposition: the replay
    // from a mid-stream record must equal a fresh cursor's suffix.
    const std::uint64_t mid = records / 2;
    cursor.seekToRecord(mid);
    DecodedTraceCursor fresh(decoded);
    BBRecord expect;
    for (std::uint64_t i = 0; i < mid; ++i)
        ASSERT_TRUE(fresh.next(expect));
    while (fresh.next(expect)) {
        ASSERT_TRUE(cursor.next(from_cursor));
        ASSERT_EQ(from_cursor.startAddr, expect.startAddr);
    }
    EXPECT_FALSE(cursor.next(from_cursor));

    std::remove(path.c_str());
}

TEST(DecodedTraceTest, SecondAcquireSharesTheDecode)
{
    const WorkloadPreset recorded = tinyPreset("decoded-share", 19);
    const std::string path = "/tmp/shotgun_test_decoded_share.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 29);
    recordTraceInstructions(gen, recorded, 29, path, 30000);

    const std::size_t decodes_before = decodedTraces().stats().decodes;
    auto first = decodedTraces().acquire(path);
    auto second = decodedTraces().acquire(path);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(decodedTraces().stats().decodes, decodes_before + 1);

    std::remove(path.c_str());
}

// ------------------------------------------------------ end to end

TEST(CoreCheckpointTest, RestoredRunMatchesUninterrupted)
{
    // First run warms from scratch and parks a checkpoint; second run
    // restores it. Identical results prove the save/restore round
    // trip is trajectory-invisible -- the property every other reuse
    // in this file builds on.
    const WorkloadPreset preset = tinyPreset("ckpt-restore", 31);
    const SimConfig config = quickConfig(preset, SchemeType::Shotgun);

    const MemoCacheStats before = checkpointCache().stats();
    const SimResult cold = runSimulation(config);
    const SimResult warm = runSimulation(config);
    const MemoCacheStats after = checkpointCache().stats();

    expectIdentical(cold, warm);
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(CoreCheckpointTest, WindowedRunSharesTheMonolithicCheckpoint)
{
    // A monolithic run and the windows of a contiguous plan share one
    // checkpoint key (same warmup, skip = 0): the monolithic run
    // warms once, every window restores, and the stitched result is
    // still byte-identical to the monolithic one.
    const WorkloadPreset preset = tinyPreset("ckpt-window", 37);
    const runner::Experiment exp =
        experimentFor(preset, SchemeType::Shotgun);

    const MemoCacheStats before = checkpointCache().stats();
    const SimResult mono = runSimulation(exp.config);

    runner::GridScheduler scheduler{runner::GridScheduler::Options(3)};
    const window::WindowedOutcome outcome = window::runWindowedExperiment(
        exp, window::contiguousPlan(exp.config, 3), scheduler);
    const MemoCacheStats after = checkpointCache().stats();

    expectIdentical(outcome.stitched, mono);
    EXPECT_EQ(after.misses, before.misses + 1); // The monolithic run.
    EXPECT_EQ(after.hits, before.hits + 3);     // Every window.
}

TEST(CohortGridTest, BatchedGridMatchesPointAtATime)
{
    // The tentpole contract: a multi-scheme grid run through the
    // cohort-scheduling runner (parallel, leaders warming, followers
    // restoring) emits exactly what a sequential point-at-a-time
    // loop does.
    const WorkloadPreset preset = tinyPreset("cohort-grid", 41);

    std::vector<runner::Experiment> grid;
    std::vector<SimResult> sequential;
    for (SchemeType type : kGridSchemes)
        grid.push_back(experimentFor(preset, type));
    const MemoCacheStats before = checkpointCache().stats();
    for (const runner::Experiment &exp : grid)
        sequential.push_back(runSimulation(exp.config));

    runner::RunnerOptions options;
    options.jobs = 3;
    const std::vector<SimResult> batched =
        runner::ExperimentRunner(options).run(grid);
    const MemoCacheStats after = checkpointCache().stats();

    ASSERT_EQ(batched.size(), sequential.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
        expectIdentical(batched[i], sequential[i]);

    // Each scheme has its own key (warmed state is scheme-visible):
    // the sequential pass warmed each once, the batched pass
    // restored each -- zero re-warms.
    const std::size_t schemes = grid.size();
    EXPECT_EQ(after.misses, before.misses + schemes);
    EXPECT_EQ(after.hits, before.hits + schemes);
}

TEST(CohortGridTest, TraceGridDecodesOnceAndMatches)
{
    // trace: variant of the same contract, plus the shared-decode
    // half of the tentpole: 6 schemes x (sequential + batched) = 12
    // replays of one file, exactly one decode.
    const WorkloadPreset recorded = tinyPreset("cohort-trace", 43);
    const std::string path = "/tmp/shotgun_test_cohort.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 47);
    recordTraceInstructions(gen, recorded, 47, path,
                            kWarmup + kMeasure + 20000);

    const WorkloadPreset preset = presetByName("trace:" + path);
    std::vector<runner::Experiment> grid;
    for (SchemeType type : kGridSchemes)
        grid.push_back(experimentFor(preset, type));

    const std::size_t decodes_before = decodedTraces().stats().decodes;
    std::vector<SimResult> sequential;
    for (const runner::Experiment &exp : grid)
        sequential.push_back(runSimulation(exp.config));

    runner::RunnerOptions options;
    options.jobs = 3;
    const std::vector<SimResult> batched =
        runner::ExperimentRunner(options).run(grid);

    ASSERT_EQ(batched.size(), sequential.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
        expectIdentical(batched[i], sequential[i]);
    EXPECT_EQ(decodedTraces().stats().decodes, decodes_before + 1);

    std::remove(path.c_str());
}

// --------------------------------------------- randomized round trip

/** The canonical digest of a result: every counter it holds. */
std::string
resultDigest(const SimResult &result)
{
    return service::fingerprintHex(
        json::fnv1a64(service::encodeSimResult(result).dump()));
}

TEST(RoundTripTest, RandomConfigsMatchColdRestoredAndResumed)
{
    // Reuse is invisible for any valid config, not only the defaults:
    // each random config gives one digest run cold, rerun (restoring
    // its warmup checkpoint), and as a contiguous 3-window plan
    // stitched back, whose first window restores that checkpoint and
    // whose later windows resume the core the window before parked.
    const std::string trace_path = "/tmp/shotgun_test_round_trip.trace";
    const WorkloadPreset recorded = tinyPreset("round-trip-trace", 71);
    TraceGenerator recorder(programFor(recorded), 73);
    recordTraceInstructions(recorder, recorded, 73, trace_path, 40000);
    std::vector<WorkloadPreset> presets = {
        tinyPreset("round-trip-a", 61), tinyPreset("round-trip-b", 67),
        presetByName("trace:" + trace_path)};
    presets[1].program.numFuncs = 400;
    presets[1].loadFrac = 0.45;
    presets[1].l1dMissRate = 0.05;

    obs::Counter *resumes = obs::metrics().counter("sim.resumes");
    Rng rng(2024);
    for (int i = 0; i < 200; ++i) {
        SimConfig config =
            SimConfig::make(presets[rng.below(presets.size())],
                            kGridSchemes[rng.below(6)]);
        config.traceSeed = 1000 + i; // Its own checkpoint key.
        config.warmupInstructions = rng.range(1000, 12000);
        config.measureInstructions = rng.range(3000, 15000);
        CoreParams &core = config.core;
        core.fetchWidth = static_cast<unsigned>(rng.range(1, 8));
        core.retireWidth = static_cast<unsigned>(rng.range(1, 6));
        core.ftqEntries = static_cast<unsigned>(rng.range(1, 48));
        core.misfetchPenalty = static_cast<unsigned>(rng.range(0, 20));
        core.mispredictPenalty = static_cast<unsigned>(rng.range(0, 20));
        core.issueEfficiency = 0.05 + 0.95 * rng.uniform();
        // A config a daemon would accept: the strict decoder runs
        // every field list's brokenRule().
        ASSERT_NO_THROW(service::decodeSimConfig(json::Value::parse(
            service::encodeSimConfig(config).dump())))
            << "config " << i;
        SCOPED_TRACE(testing::Message()
                     << "config " << i << ": "
                     << service::encodeSimConfig(config).dump());

        const MemoCacheStats before = checkpointCache().stats();
        const std::uint64_t resumes_before = resumes->value();
        const std::string cold = resultDigest(runSimulation(config));
        const MemoCacheStats after_cold = checkpointCache().stats();
        const std::string restored = resultDigest(runSimulation(config));
        std::vector<SimulationDelta> windows;
        for (const SimConfig &window : window::expandPlan(
                 config, window::contiguousPlan(config, 3)))
            windows.push_back(runSimulationDelta(window));
        const std::string stitched =
            resultDigest(window::stitchWindows(windows));
        const MemoCacheStats after = checkpointCache().stats();

        ASSERT_EQ(restored, cold);
        ASSERT_EQ(stitched, cold);
        // Cold warmed; the rerun and the first window restored; the
        // two later windows resumed parked cores.
        ASSERT_EQ(after_cold.misses, before.misses + 1);
        ASSERT_EQ(after.misses, before.misses + 1);
        ASSERT_EQ(after.hits, before.hits + 4);
        ASSERT_EQ(resumes->value(), resumes_before + 2);
    }
    std::remove(trace_path.c_str());
}

} // namespace
} // namespace shotgun
