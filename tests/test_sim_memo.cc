/**
 * @file
 * Regression tests for the thread-safety of the simulator's shared
 * memoization: the generic LruMemoCache and the programFor cache that
 * every concurrent experiment hammers. Before the runner subsystem
 * these were guarded per-call; the tests pin down the stronger
 * contract the parallel runner needs: compute-once per key, stable
 * references, and no serialization of distinct keys.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/memo.hh"
#include "sim/simulator.hh"

namespace shotgun
{
namespace
{

/** Every entry costs 10 bytes: budgets become entry counts. */
std::size_t
tenBytes(const int &, const int &)
{
    return 10;
}

TEST(LruMemoCacheTest, EvictsLeastRecentlyUsedWithinBudget)
{
    LruMemoCache<int, int> cache(30, tenBytes); // Room for 3.
    std::atomic<int> computes{0};
    auto fill = [&](int key) {
        return *cache.get(key, [&computes, key]() {
            ++computes;
            return key * 2;
        });
    };

    EXPECT_EQ(fill(1), 2);
    EXPECT_EQ(fill(2), 4);
    EXPECT_EQ(fill(3), 6);
    EXPECT_EQ(computes.load(), 3);
    EXPECT_EQ(cache.stats().bytes, 30u);

    fill(1);             // Touch: 1 is now most recent.
    EXPECT_EQ(fill(4), 8); // Evicts 2 (the LRU), not 1.
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, 30u);

    fill(1); // Still cached.
    EXPECT_EQ(computes.load(), 4);
    fill(2); // Was evicted: recomputes the identical value.
    EXPECT_EQ(computes.load(), 5);
}

TEST(LruMemoCacheTest, EvictedKeyRecomputesSameValueNeverStale)
{
    LruMemoCache<int, int> cache(10, tenBytes); // Room for 1.
    for (int round = 0; round < 3; ++round) {
        for (int key = 0; key < 4; ++key) {
            // The "simulation" is pure: recomputation after any
            // eviction pattern must always return the same value.
            EXPECT_EQ(*cache.get(key, [key]() { return key + 7; }),
                      key + 7);
        }
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(LruMemoCacheTest, ZeroBudgetIsUnbounded)
{
    // Without a budget nothing is evicted: each key computes once,
    // and distinct keys compute independently.
    LruMemoCache<int, int> cache(0, tenBytes);
    int computes = 0;
    for (int round = 0; round < 2; ++round) {
        for (int key = 0; key < 100; ++key) {
            EXPECT_EQ(*cache.get(key,
                                 [&computes, key]() {
                                     ++computes;
                                     return key * 3;
                                 }),
                      key * 3);
        }
    }
    EXPECT_EQ(computes, 100);
    EXPECT_EQ(cache.size(), 100u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.stats().bytes, 1000u);
}

TEST(LruMemoCacheTest, UnboundedConcurrentHammerComputesOnce)
{
    LruMemoCache<int, int> cache;
    constexpr int kThreads = 8, kKeys = 4, kIters = 200;
    std::atomic<int> computes{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&]() {
            for (int i = 0; i < kIters; ++i) {
                const int key = i % kKeys;
                const auto value = cache.get(key, [&computes, key]() {
                    ++computes;
                    return key + 100;
                });
                ASSERT_EQ(*value, key + 100);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(computes.load(), kKeys);
}

TEST(LruMemoCacheTest, CountsHitsAndMisses)
{
    LruMemoCache<int, int> cache(0, tenBytes);
    cache.get(1, []() { return 1; });
    cache.get(1, []() { return 1; });
    cache.get(2, []() { return 2; });
    const MemoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(LruMemoCacheTest, ValueHandedOutSurvivesEviction)
{
    LruMemoCache<int, int> cache(10, tenBytes);
    const auto held = cache.get(1, []() { return 41; });
    cache.get(2, []() { return 42; }); // Evicts key 1.
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(*held, 41); // The shared_ptr keeps the value alive.
}

TEST(LruMemoCacheTest, ConcurrentHammerStaysWithinBudgetAndCorrect)
{
    LruMemoCache<int, int> cache(50, tenBytes); // Room for 5.
    constexpr int kThreads = 8, kIters = 300, kKeys = 12;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (int i = 0; i < kIters; ++i) {
                const int key = (i + t) % kKeys;
                const auto value =
                    cache.get(key, [key]() { return key * 5; });
                ASSERT_EQ(*value, key * 5);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    const MemoCacheStats stats = cache.stats();
    EXPECT_LE(stats.bytes, 50u);
    EXPECT_LE(stats.entries, 5u);
    EXPECT_GT(stats.evictions, 0u);
}

TEST(LruMemoCacheTest, ThrowingComputeAllowsRetry)
{
    LruMemoCache<int, int> cache(0, tenBytes);
    int attempts = 0;
    EXPECT_THROW(cache.get(1,
                           [&attempts]() -> int {
                               ++attempts;
                               throw std::runtime_error("first try");
                           }),
                 std::runtime_error);
    EXPECT_EQ(*cache.get(1, [&attempts]() { return ++attempts; }), 2);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(LruMemoCacheTest, WaitersOfAThrowingComputeEachGetTheirOwnError)
{
    // The first caller computes and holds until the other callers
    // wait on it (each wait counts as a hit), then throws. Every
    // caller must catch an exception object of its own: one object
    // rethrown on several threads is shared between them.
    constexpr std::size_t kThreads = 6;
    LruMemoCache<int, int> cache;
    std::vector<const void *> caught(kThreads, nullptr);
    std::vector<std::exception_ptr> alive(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &caught, &alive, t]() {
            try {
                cache.get(1, [&cache]() -> int {
                    while (cache.stats().hits < kThreads - 1)
                        std::this_thread::yield();
                    throw std::runtime_error("no value");
                });
            } catch (const std::runtime_error &e) {
                caught[t] = &e;
                alive[t] = std::current_exception();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    const std::set<const void *> distinct(caught.begin(), caught.end());
    EXPECT_EQ(distinct.count(nullptr), 0u);
    EXPECT_EQ(distinct.size(), kThreads);
    EXPECT_EQ(cache.size(), 0u); // Every throwing compute left no entry.
}

/** Small synthetic workloads so the hammer stays fast. */
WorkloadPreset
tinyPreset(const std::string &name, std::uint64_t seed)
{
    WorkloadPreset preset;
    preset.name = name;
    preset.program.name = name;
    preset.program.numFuncs = 100;
    preset.program.numOsFuncs = 20;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;
    preset.program.seed = seed;
    return preset;
}

TEST(SimulatorMemoTest, ProgramForReturnsOneImagePerKey)
{
    const WorkloadPreset preset = tinyPreset("memo-a", 0x11);
    const Program &first = programFor(preset);
    const Program &second = programFor(preset);
    EXPECT_EQ(&first, &second);

    const WorkloadPreset other = tinyPreset("memo-b", 0x22);
    EXPECT_NE(&programFor(other), &first);
}

TEST(SimulatorMemoTest, SameNameDifferentParamsAreDistinct)
{
    // Ad-hoc presets (workload_studio style) may reuse a name while
    // sweeping generation knobs; the cache must not conflate them.
    const WorkloadPreset a = tinyPreset("memo-knobs", 0x44);
    WorkloadPreset b = a;
    b.program.zipfAlpha = a.program.zipfAlpha + 0.2;
    EXPECT_NE(&programFor(a), &programFor(b));

    WorkloadPreset c = a;
    c.loadFrac = a.loadFrac + 0.1; // data-side only: same program...
    EXPECT_EQ(&programFor(a), &programFor(c));
    // ...but a different baseline.
    const SimResult base_a = baselineFor(a, 5000, 20000);
    const SimResult base_c = baselineFor(c, 5000, 20000);
    EXPECT_NE(base_a.cycles, base_c.cycles);
}

TEST(SimulatorMemoTest, ConcurrentProgramForIsStable)
{
    // Hammer the shared program cache from many threads over a mix of
    // new and already-cached keys; every thread must observe the same
    // image per key (the pre-runner code would have raced here).
    constexpr int kThreads = 8;
    std::vector<WorkloadPreset> presets;
    for (int i = 0; i < 4; ++i) {
        presets.push_back(tinyPreset("memo-hammer-" + std::to_string(i),
                                     0x100 + static_cast<std::uint64_t>(i)));
    }

    std::vector<std::vector<const Program *>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (const auto &preset : presets)
                seen[static_cast<std::size_t>(t)].push_back(
                    &programFor(preset));
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
}

TEST(SimulatorMemoTest, ConcurrentBaselineForAgrees)
{
    // Many threads run the same baseline at once, sharing the program
    // cache and the checkpoint store; every run must come out
    // bitwise-identical, and so must a later one.
    const WorkloadPreset preset = tinyPreset("memo-baseline", 0x33);
    constexpr int kThreads = 8;
    std::vector<SimResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            results[static_cast<std::size_t>(t)] =
                baselineFor(preset, 10000, 30000);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_TRUE(results[static_cast<std::size_t>(t)] == results[0]);
    EXPECT_EQ(results[0].scheme, "baseline");
    EXPECT_TRUE(baselineFor(preset, 10000, 30000) == results[0]);

    // Different lengths are a different simulation.
    const SimResult longer = baselineFor(preset, 10000, 60000);
    EXPECT_NE(longer.instructions, results[0].instructions);
}

} // namespace
} // namespace shotgun
