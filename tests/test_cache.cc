/**
 * @file
 * Tests for the memory-side substrates: cache content model (with
 * prefetch provenance), MSHR file, predecoder oracle, and the
 * instruction hierarchy's timing/piggybacking behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "cache/predecoder.hh"
#include "trace/program.hh"

namespace shotgun
{
namespace
{

TEST(CacheTest, HitAfterFill)
{
    Cache cache(CacheParams{"t", 32, 2});
    EXPECT_FALSE(cache.access(100));
    cache.fill(100, false);
    EXPECT_TRUE(cache.access(100));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTest, CapacityIs512BlocksFor32KB)
{
    Cache cache(CacheParams{"l1i", 32, 2});
    EXPECT_EQ(cache.numBlocks(), 512u);
}

TEST(CacheTest, PrefetchProvenanceUseful)
{
    Cache cache(CacheParams{"t", 32, 2});
    cache.fill(7, true);
    EXPECT_EQ(cache.prefetchFills(), 1u);
    EXPECT_EQ(cache.usefulPrefetches(), 0u);
    EXPECT_TRUE(cache.access(7)); // first demand use
    EXPECT_EQ(cache.usefulPrefetches(), 1u);
    // Second use does not double count.
    EXPECT_TRUE(cache.access(7));
    EXPECT_EQ(cache.usefulPrefetches(), 1u);
}

TEST(CacheTest, PrefetchProvenanceUseless)
{
    // Single-set sandbox: 64B cache = 1 block.
    Cache cache(CacheParams{"t", 1, 16});
    // 16 ways: fill them all as prefetches, then evict with demand.
    for (Addr b = 0; b < 16; ++b)
        cache.fill(b, true);
    for (Addr b = 100; b < 116; ++b)
        cache.fill(b, false);
    EXPECT_EQ(cache.uselessPrefetches(), 16u);
}

TEST(CacheTest, LruVictimSelection)
{
    Cache cache(CacheParams{"t", 1, 2}); // 64B, degenerate geometry
    // With chooseWays fallback this is a small table; just check LRU
    // semantics via presence after over-fill.
    cache.fill(1, false);
    cache.fill(2, false);
    cache.access(1); // 1 becomes MRU
    cache.fill(3, false);
    EXPECT_TRUE(cache.contains(1) || cache.contains(3));
}

TEST(MshrTest, AllocateFindDrain)
{
    MSHRFile mshrs(4);
    EXPECT_EQ(mshrs.find(10), nullptr);
    auto *entry = mshrs.allocate(10, 50, true);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(mshrs.find(10) != nullptr);

    std::vector<Addr> filled;
    mshrs.drain(49, [&](const MSHRFile::Entry &e) {
        filled.push_back(e.block);
    });
    EXPECT_TRUE(filled.empty());
    mshrs.drain(50, [&](const MSHRFile::Entry &e) {
        filled.push_back(e.block);
        EXPECT_TRUE(e.isPrefetch);
    });
    ASSERT_EQ(filled.size(), 1u);
    EXPECT_EQ(filled[0], 10u);
    EXPECT_EQ(mshrs.find(10), nullptr);
}

TEST(MshrTest, DrainOrderIsReadiness)
{
    MSHRFile mshrs(8);
    mshrs.allocate(1, 30, false);
    mshrs.allocate(2, 10, false);
    mshrs.allocate(3, 20, false);
    std::vector<Addr> order;
    mshrs.drain(100, [&](const MSHRFile::Entry &e) {
        order.push_back(e.block);
    });
    EXPECT_EQ(order, (std::vector<Addr>{2, 3, 1}));
}

TEST(MshrTest, EqualReadyAtDrainsInBlockOrder)
{
    MSHRFile mshrs(8);
    mshrs.allocate(9, 20, false);
    mshrs.allocate(4, 20, true);
    mshrs.allocate(7, 10, false);
    mshrs.allocate(2, 20, false);
    EXPECT_EQ(mshrs.nextReadyAt(), 10u);
    std::vector<Addr> order;
    mshrs.drain(20, [&](const MSHRFile::Entry &e) {
        order.push_back(e.block);
    });
    EXPECT_EQ(order, (std::vector<Addr>{7, 2, 4, 9}));
    EXPECT_EQ(mshrs.inFlight(), 0u);
    EXPECT_EQ(mshrs.nextReadyAt(), kNever);
}

TEST(MshrTest, AllocationInsideDrainJoinsWhenDue)
{
    // A fill callback may allocate (a scheme prefetching on fill). An
    // entry already due drains in the same pass, in (readyAt, block)
    // order with the rest; a later one stays in flight.
    MSHRFile mshrs(8);
    mshrs.allocate(5, 10, false);
    mshrs.allocate(6, 12, false);
    std::vector<Addr> order;
    mshrs.drain(12, [&](const MSHRFile::Entry &e) {
        order.push_back(e.block);
        if (e.block == 5) {
            EXPECT_NE(mshrs.allocate(1, 12, true), nullptr);
            EXPECT_NE(mshrs.allocate(2, 30, true), nullptr);
        }
    });
    EXPECT_EQ(order, (std::vector<Addr>{5, 1, 6}));
    EXPECT_EQ(mshrs.inFlight(), 1u);
    EXPECT_EQ(mshrs.nextReadyAt(), 30u);
    EXPECT_NE(mshrs.find(2), nullptr);
}

TEST(MshrTest, FullRejectsAllocation)
{
    MSHRFile mshrs(2);
    EXPECT_NE(mshrs.allocate(1, 10, false), nullptr);
    EXPECT_NE(mshrs.allocate(2, 10, false), nullptr);
    EXPECT_TRUE(mshrs.full());
    EXPECT_EQ(mshrs.allocate(3, 10, false), nullptr);
}

TEST(MshrTest, DoubleAllocatePanics)
{
    MSHRFile mshrs(4);
    mshrs.allocate(5, 10, false);
    EXPECT_DEATH(mshrs.allocate(5, 20, false), "double allocation");
}

// ---------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------

HierarchyParams
quietParams()
{
    HierarchyParams p;
    p.mesh.backgroundLoad = 0.0; // deterministic latencies
    return p;
}

TEST(HierarchyTest, DemandMissThenHitAfterFill)
{
    InstrHierarchy mem(quietParams());
    const Cycle now = 100;
    auto result = mem.demandFetch(42, now);
    EXPECT_FALSE(result.hit);
    EXPECT_GT(result.readyAt, now);

    mem.drainFills(result.readyAt);
    auto again = mem.demandFetch(42, result.readyAt);
    EXPECT_TRUE(again.hit);
    EXPECT_EQ(mem.demandMisses(), 1u);
}

TEST(HierarchyTest, PrefetchPreventsDemandMiss)
{
    InstrHierarchy mem(quietParams());
    EXPECT_TRUE(mem.issuePrefetch(42, 0));
    const Cycle landing = mem.mesh().baseLlcLatency() +
                          mem.params().memory.accessCycles + 16;
    mem.drainFills(landing);
    auto result = mem.demandFetch(42, landing);
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(mem.l1i().usefulPrefetches(), 1u);
}

TEST(HierarchyTest, DemandPiggybacksOnInflightPrefetch)
{
    InstrHierarchy mem(quietParams());
    EXPECT_TRUE(mem.issuePrefetch(42, 0));
    auto result = mem.demandFetch(42, 1);
    EXPECT_FALSE(result.hit);
    EXPECT_GT(result.readyAt, 1u);
    mem.drainFills(result.readyAt);
    EXPECT_TRUE(mem.l1Contains(42));
    // The piggybacked prefetch counts as late-but-useful.
    EXPECT_EQ(mem.lateUsefulPrefetches(), 1u);
}

TEST(HierarchyTest, DuplicatePrefetchDropped)
{
    InstrHierarchy mem(quietParams());
    EXPECT_TRUE(mem.issuePrefetch(42, 0));
    EXPECT_FALSE(mem.issuePrefetch(42, 0)); // in flight
    mem.drainFills(1000);
    EXPECT_FALSE(mem.issuePrefetch(42, 1000)); // resident
    EXPECT_EQ(mem.prefetchesIssued(), 1u);
}

TEST(HierarchyTest, SecondAccessHitsLlc)
{
    InstrHierarchy mem(quietParams());
    // First touch goes to memory (cold LLC); after eviction from the
    // tiny L1 path it would hit LLC. Model-level check: the LLC
    // records the block after the first fill.
    auto r1 = mem.demandFetch(7, 0);
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(mem.llc().contains(7));
}

TEST(HierarchyTest, ProbeForFillUsesL1Latency)
{
    InstrHierarchy mem(quietParams());
    mem.demandFetch(42, 0);
    mem.drainFills(100000);
    const Cycle ready = mem.probeForFill(42, 200000);
    EXPECT_EQ(ready, 200000u + mem.params().l1iHitCycles);
}

TEST(HierarchyTest, PrefetchAccuracyMath)
{
    InstrHierarchy mem(quietParams());
    mem.issuePrefetch(1, 0);
    mem.issuePrefetch(2, 0);
    mem.drainFills(100000);
    mem.demandFetch(1, 100001); // hit, uses prefetch 1
    EXPECT_NEAR(mem.prefetchAccuracy(), 0.5, 1e-9);
}

// ---------------------------------------------------------------------
// Predecoder
// ---------------------------------------------------------------------

TEST(PredecoderTest, MatchesProgramOracle)
{
    ProgramParams params;
    params.numFuncs = 100;
    params.numOsFuncs = 20;
    params.numTrapHandlers = 4;
    params.numTopLevel = 4;
    params.seed = 5;
    Program program(params);
    Predecoder predecoder(program);

    const Function &fn = program.function(10);
    const StaticBB &bb = program.bb(fn.firstBB);
    const auto &decoded =
        predecoder.decodeBlock(blockNumber(bb.startAddr));
    bool found = false;
    for (const BTBEntry &entry : decoded) {
        if (entry.bbStart == bb.startAddr) {
            found = true;
            EXPECT_EQ(entry.type, bb.type);
            EXPECT_EQ(entry.numInstrs, bb.numInstrs);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_GT(predecoder.blocksDecoded(), 0u);

    BTBEntry single;
    EXPECT_TRUE(predecoder.decodeBB(bb.startAddr, single));
    EXPECT_EQ(single.bbStart, bb.startAddr);
    EXPECT_FALSE(predecoder.decodeBB(0xdead000, single));
}

} // namespace
} // namespace shotgun
