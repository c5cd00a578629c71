/**
 * @file
 * Tests for the memory-side substrates: cache content model (with
 * prefetch provenance), MSHR file, predecoder oracle, and the
 * instruction hierarchy's timing/piggybacking behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "btb/assoc_table.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "cache/predecoder.hh"
#include "common/random.hh"
#include "sim/simulator.hh"
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

/**
 * The dense reference the resident-line Cache must match call for
 * call: `ways` slots per set, a victim that is the first free slot
 * or else the least recently used (one clock stamps every touch and
 * insert), and the same provenance and pollution bookkeeping.
 */
class DenseReferenceCache
{
  public:
    DenseReferenceCache(std::size_t blocks, std::size_t ways)
        : ways_(chooseWays(blocks, ways)), sets_(blocks / ways_),
          slots_(blocks), victims_(256, ~Addr(0))
    {
    }

    std::size_t numBlocks() const { return slots_.size(); }
    std::size_t hits = 0, misses = 0, fills = 0, useful = 0;
    std::size_t useless = 0, prefetchFills = 0, polluting = 0;
    std::size_t occupancy = 0;

    bool
    contains(Addr block) const
    {
        return slotOf(block) != nullptr;
    }

    bool
    access(Addr block)
    {
        Slot *slot = slotOf(block);
        if (slot == nullptr) {
            ++misses;
            if (victims_[block % 256] == block) {
                ++polluting;
                victims_[block % 256] = ~Addr(0);
            }
            return false;
        }
        ++hits;
        slot->stamp = ++clock_;
        if (slot->prefetched) {
            slot->prefetched = false;
            ++useful;
        }
        return true;
    }

    void
    fill(Addr block, bool prefetched)
    {
        ++fills;
        prefetchFills += prefetched;
        if (Slot *slot = slotOf(block)) {
            slot->stamp = ++clock_;
            return;
        }
        Slot *victim = &slots_[block % sets_ * ways_];
        for (std::size_t w = 0; w < ways_; ++w) {
            Slot &slot = slots_[block % sets_ * ways_ + w];
            if (!slot.valid) {
                victim = &slot;
                break;
            }
            if (slot.stamp < victim->stamp)
                victim = &slot;
        }
        if (victim->valid) {
            useless += victim->prefetched;
            if (prefetched && !victim->prefetched)
                victims_[victim->block % 256] = victim->block;
        } else {
            ++occupancy;
        }
        *victim = Slot{block, ++clock_, true, prefetched};
    }

  private:
    struct Slot
    {
        Addr block = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
        bool prefetched = false;
    };

    Slot *
    slotOf(Addr block) const
    {
        for (std::size_t w = 0; w < ways_; ++w) {
            const Slot &slot = slots_[block % sets_ * ways_ + w];
            if (slot.valid && slot.block == block)
                return const_cast<Slot *>(&slot);
        }
        return nullptr;
    }

    std::size_t ways_;
    std::size_t sets_;
    std::vector<Slot> slots_;
    std::vector<Addr> victims_;
    std::uint64_t clock_ = 0;
};

TEST(CacheTest, ResidentLinesMatchTheDenseReferenceCallForCall)
{
    struct Geometry
    {
        std::size_t sizeKB;
        std::size_t ways;
    };
    // 1-way; the L1-I's 2-way 256 sets; 16-way; 80 sets (not a power
    // of two, so sets index by modulo).
    const Geometry geometries[] = {{4, 1}, {32, 2}, {64, 16}, {20, 4}};
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(testing::Message() << g.sizeKB << "KB " << g.ways
                                        << "-way");
        Cache cache(CacheParams{"t", g.sizeKB, g.ways});
        cache.enablePollutionTracking();
        DenseReferenceCache ref(g.sizeKB * 1024 / kBlockBytes, g.ways);
        ASSERT_EQ(cache.numBlocks(), ref.numBlocks());

        Rng rng(g.sizeKB * 131 + g.ways);
        // Blocks from a range of three capacities, half the draws near
        // the previous one: conflicts, reuse and sequential runs.
        const Addr span = 3 * ref.numBlocks();
        Addr block = 0;
        for (int i = 0; i < 60000; ++i) {
            block = rng.chance(0.5) ? (block + rng.below(4)) % span
                                    : rng.below(span);
            const std::uint64_t op = rng.below(4);
            if (op == 0) {
                ASSERT_EQ(cache.access(block), ref.access(block)) << i;
            } else if (op == 1) {
                ASSERT_EQ(cache.contains(block), ref.contains(block))
                    << i;
            } else {
                cache.fill(block, op == 3);
                ref.fill(block, op == 3);
            }
            ASSERT_EQ(cache.hits(), ref.hits) << i;
            ASSERT_EQ(cache.misses(), ref.misses) << i;
            ASSERT_EQ(cache.fills(), ref.fills) << i;
            ASSERT_EQ(cache.usefulPrefetches(), ref.useful) << i;
            ASSERT_EQ(cache.uselessPrefetches(), ref.useless) << i;
            ASSERT_EQ(cache.prefetchFills(), ref.prefetchFills) << i;
            ASSERT_EQ(cache.pollutingPrefetches(), ref.polluting) << i;
            ASSERT_EQ(cache.occupancy(), ref.occupancy) << i;
        }
        EXPECT_GT(ref.useless, 0u);
        EXPECT_GT(ref.polluting, 0u);
    }
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
    EXPECT_EQ(mem.prefetchesIssued(), 2u);
    EXPECT_EQ(mem.l1i().usefulPrefetches(), 1u);
    EXPECT_EQ(mem.lateUsefulPrefetches(), 0u);

    // Fig 10's accuracy is finalizeResult()'s: useful over issued.
    StatsDelta delta;
    delta.prefetchesIssued = mem.prefetchesIssued();
    delta.usefulPrefetches = mem.l1i().usefulPrefetches();
    delta.lateUsefulPrefetches = mem.lateUsefulPrefetches();
    EXPECT_NEAR(finalizeResult("w", "s", 0, delta).prefetchAccuracy, 0.5,
                1e-9);
    // No prefetch issued: 0, not a division by zero.
    EXPECT_EQ(finalizeResult("w", "s", 0, StatsDelta{}).prefetchAccuracy,
              0.0);
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
        predecoder.decodeBlock(blockNumber(bb.startAddr()));
    bool found = false;
    for (const BTBEntry &entry : decoded) {
        if (entry.bbStart == bb.startAddr()) {
            found = true;
            EXPECT_EQ(entry.type, bb.type);
            EXPECT_EQ(entry.numInstrs, bb.numInstrs);
        }
    }
    EXPECT_TRUE(found);

    BTBEntry single;
    EXPECT_TRUE(predecoder.decodeBB(bb.startAddr(), single));
    EXPECT_EQ(single.bbStart, bb.startAddr());
    EXPECT_FALSE(predecoder.decodeBB(0xdead000, single));
}

} // namespace
} // namespace shotgun
