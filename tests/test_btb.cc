/**
 * @file
 * Tests for the BTB substrate and Shotgun's BTB organization: the
 * generic set-associative table, the BTB table's prefill lifecycle,
 * conventional BTB, prefetch buffer, spatial footprints,
 * U-BTB/C-BTB/RIB, the footprint recorder, and the Sec 5.2
 * storage-cost arithmetic (asserted against the paper's exact
 * numbers).
 */

#include <gtest/gtest.h>

#include <set>

#include "btb/assoc_table.hh"
#include "btb/conventional_btb.hh"
#include "btb/prefetch_buffer.hh"
#include "core/footprint.hh"
#include "core/footprint_recorder.hh"
#include "core/shotgun_btb.hh"
#include "trace/generator.hh"
#include "trace/program.hh"

namespace shotgun
{
namespace
{

TEST(AssocTableTest, InsertFindTouch)
{
    SetAssocTable<int> t(4, 2);
    t.insert(0x10, 42);
    EXPECT_NE(t.find(0x10), nullptr);
    EXPECT_EQ(*t.find(0x10), 42);
    EXPECT_EQ(t.find(0x11), nullptr);
    EXPECT_EQ(t.occupancy(), 1u);
}

TEST(AssocTableTest, LruEvictionWithinSet)
{
    SetAssocTable<int> t(1, 2); // single set, 2 ways
    t.insert(1, 100);
    t.insert(2, 200);
    t.touch(1); // 1 is now MRU
    std::uint64_t evicted_key = 0;
    int evicted_value = 0;
    const bool evicted = t.insert(3, 300, &evicted_key, &evicted_value);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(evicted_key, 2u);
    EXPECT_EQ(evicted_value, 200);
    EXPECT_NE(t.find(1), nullptr);
    EXPECT_EQ(t.find(2), nullptr);
}

TEST(AssocTableTest, InsertExistingOverwritesWithoutEviction)
{
    SetAssocTable<int> t(1, 1);
    t.insert(5, 1);
    EXPECT_FALSE(t.insert(5, 2));
    EXPECT_EQ(*t.find(5), 2);
}

TEST(AssocTableTest, SetIsolation)
{
    SetAssocTable<int> t(4, 1);
    // Keys 0..3 map to different sets; no evictions.
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_FALSE(t.insert(k, int(k)));
    EXPECT_EQ(t.occupancy(), 4u);
    // Key 4 collides with key 0 only.
    t.insert(4, 40);
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_NE(t.find(1), nullptr);
}

TEST(AssocTableTest, Erase)
{
    SetAssocTable<int> t(2, 2);
    t.insert(1, 10);
    t.insert(2, 20);
    EXPECT_TRUE(t.erase(1));
    EXPECT_FALSE(t.erase(1));
    EXPECT_EQ(t.occupancy(), 1u);
}

TEST(AssocTableTest, SingleSetUsesEveryWay)
{
    SetAssocTable<int> t(1, 4);
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_FALSE(t.insert(k * 1000003, int(k)));
    EXPECT_EQ(t.occupancy(), 4u);
    t.touch(0);
    std::uint64_t evicted_key = 0;
    EXPECT_TRUE(t.insert(77, 77, &evicted_key));
    EXPECT_EQ(evicted_key, 1000003u); // The LRU way after the touch.
}

TEST(AssocTableTest, NonPowerOfTwoSetsIndexByModulo)
{
    // 301 sets, as in the no-bit-vector U-BTB ablation: keys k and
    // k + 301 share a set; 517 (set 5 under a power-of-two mask) goes
    // to set 216.
    SetAssocTable<int> t(301, 1);
    for (std::uint64_t k = 0; k < 301; ++k)
        EXPECT_FALSE(t.insert(k, int(k)));
    EXPECT_EQ(t.occupancy(), 301u);

    std::uint64_t evicted_key = 0;
    EXPECT_TRUE(t.insert(5 + 301, 1, &evicted_key));
    EXPECT_EQ(evicted_key, 5u);
    EXPECT_TRUE(t.insert(517, 2, &evicted_key));
    EXPECT_EQ(evicted_key, 216u);
    EXPECT_NE(t.find(5 + 301), nullptr);
    EXPECT_NE(t.find(517), nullptr);
}

TEST(AssocTableTest, ChooseWaysPrefersRequested)
{
    EXPECT_EQ(chooseWays(2048, 4), 4u);
    EXPECT_EQ(chooseWays(1536, 6), 6u);
    EXPECT_EQ(chooseWays(4096, 8), 8u);
    // 1806 = 6 * 301.
    EXPECT_EQ(chooseWays(1806, 6), 6u);
}

TEST(AssocTableTest, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(511), 8u);
    EXPECT_EQ(floorLog2(512), 9u);
}

// ---------------------------------------------------------------------
// BTB table prefill lifecycle, for both prefill-capable formats
// ---------------------------------------------------------------------

template <typename TableT, typename EntryT>
struct PrefillFormat
{
    using Table = TableT;
    using Entry = EntryT;
};

template <typename Format>
class PrefillLifecycleTest : public ::testing::Test
{
  protected:
    using Entry = typename Format::Entry;

    /** One set of two ways: a third key evicts the LRU of the two. */
    typename Format::Table table{2, 2};

    static Entry
    entryAt(Addr bb_start)
    {
        Entry entry;
        entry.bbStart = bb_start;
        entry.target = bb_start + 0x100;
        entry.numInstrs = 4;
        return entry;
    }

    const PrefillCounts &counts() const { return table.prefillCounts(); }
};

using PrefillFormats =
    ::testing::Types<PrefillFormat<ConventionalBTB, BTBEntry>,
                     PrefillFormat<CBTB, CBTBEntry>>;
TYPED_TEST_SUITE(PrefillLifecycleTest, PrefillFormats);

TYPED_TEST(PrefillLifecycleTest, DemandHitAndMissAreLookupsReturn)
{
    this->table.insert(this->entryAt(0x1000));
    const auto *hit = this->table.lookup(0x1000);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->target, 0x1100u);
    EXPECT_EQ(this->table.lookup(0x2000), nullptr);
    EXPECT_EQ(this->counts().prefills, 0u);
    EXPECT_EQ(this->counts().uses, 0u);
}

TYPED_TEST(PrefillLifecycleTest, PrefillThenDemandHitIsOneTimelyUse)
{
    this->table.insertPrefill(this->entryAt(0x1000));
    EXPECT_EQ(this->counts().prefills, 1u);
    EXPECT_EQ(this->counts().uses, 0u);
    ASSERT_NE(this->table.lookup(0x1000), nullptr);
    EXPECT_EQ(this->counts().uses, 1u);
    // Only the first demand hit uses the prefill; a probe never does.
    ASSERT_NE(this->table.lookup(0x1000), nullptr);
    EXPECT_NE(this->table.probe(0x1000), nullptr);
    EXPECT_EQ(this->counts().uses, 1u);

    // Once used, its eviction is neither unused nor pollution.
    this->table.insert(this->entryAt(0x2000));
    this->table.insert(this->entryAt(0x3000));
    EXPECT_EQ(this->table.probe(0x1000), nullptr);
    EXPECT_EQ(this->counts().evictions, 0u);
    EXPECT_EQ(this->counts().pollution, 0u);
}

TYPED_TEST(PrefillLifecycleTest, PrefillEvictedByDemandInsertIsUnused)
{
    this->table.insertPrefill(this->entryAt(0x1000));
    this->table.insert(this->entryAt(0x2000));
    this->table.insert(this->entryAt(0x3000)); // evicts the prefill
    EXPECT_EQ(this->table.probe(0x1000), nullptr);
    EXPECT_EQ(this->counts().evictions, 1u);
    EXPECT_EQ(this->counts().pollution, 0u);
    EXPECT_EQ(this->counts().uses, 0u);
}

TYPED_TEST(PrefillLifecycleTest, PrefillEvictedByPrefillIsUnused)
{
    this->table.insertPrefill(this->entryAt(0x1000));
    this->table.insertPrefill(this->entryAt(0x2000));
    this->table.insertPrefill(this->entryAt(0x3000));
    EXPECT_EQ(this->counts().prefills, 3u);
    EXPECT_EQ(this->counts().evictions, 1u);
    EXPECT_EQ(this->counts().pollution, 0u);
}

TYPED_TEST(PrefillLifecycleTest, PrefillEvictingADemandEntryPollutes)
{
    this->table.insert(this->entryAt(0x1000));
    this->table.insert(this->entryAt(0x2000));
    this->table.insertPrefill(this->entryAt(0x3000)); // evicts 0x1000
    EXPECT_EQ(this->table.probe(0x1000), nullptr);
    EXPECT_EQ(this->counts().pollution, 1u);
    EXPECT_EQ(this->counts().evictions, 0u);
}

// ---------------------------------------------------------------------
// Conventional BTB
// ---------------------------------------------------------------------

TEST(ConventionalBTBTest, HitAfterInsert)
{
    ConventionalBTB btb(2048);
    BTBEntry e;
    e.bbStart = 0x400100;
    e.target = 0x400200;
    e.numInstrs = 5;
    e.type = BranchType::Call;
    btb.insert(e);

    const BTBEntry *hit = btb.lookup(0x400100);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->target, 0x400200u);
    EXPECT_EQ(hit->fallThrough(), 0x400100u + 20);
    EXPECT_EQ(hit->branchPC(), 0x400100u + 16);
}

TEST(ConventionalBTBTest, EmptyTableLookupReturnsNull)
{
    ConventionalBTB btb(2048);
    EXPECT_EQ(btb.lookup(0x400100), nullptr);
}

TEST(ConventionalBTBTest, PaperStorageCost)
{
    // Sec 5.2: 2K entries, 37-bit tag, 93 bits/entry, 23.25KB.
    ConventionalBTB btb(2048, 4);
    EXPECT_EQ(btb.tagBits(), 37u);
    EXPECT_EQ(btb.bitsPerEntry(), 93u);
    EXPECT_DOUBLE_EQ(btb.storageBits() / 8.0 / 1024.0, 23.25);
}

TEST(ConventionalBTBTest, CapacityPressureCausesMisses)
{
    ConventionalBTB btb(64, 4);
    // Insert far more distinct blocks than capacity.
    for (Addr a = 0; a < 256; ++a) {
        BTBEntry e;
        e.bbStart = 0x400000 + a * 64;
        e.numInstrs = 4;
        e.type = BranchType::Jump;
        e.target = 0x400000;
        btb.insert(e);
    }
    std::size_t survivors = 0;
    for (Addr a = 0; a < 256; ++a)
        survivors += btb.probe(0x400000 + a * 64) != nullptr;
    // The hashed index spreads the structured stride across sets, so
    // close to the full capacity survives, and never more than it.
    EXPECT_LE(survivors, 64u);
    EXPECT_GE(survivors, 40u);
}

// ---------------------------------------------------------------------
// Prefetch buffer
// ---------------------------------------------------------------------

TEST(PrefetchBufferTest, ExtractRemoves)
{
    BTBPrefetchBuffer buf(4);
    BTBEntry e;
    e.bbStart = 0x1000;
    e.type = BranchType::Conditional;
    buf.insert(e);
    EXPECT_TRUE(buf.contains(0x1000));
    BTBEntry out;
    EXPECT_TRUE(buf.extract(0x1000, out));
    EXPECT_EQ(out.bbStart, 0x1000u);
    EXPECT_FALSE(buf.contains(0x1000));
    EXPECT_EQ(buf.hits(), 1u);
}

TEST(PrefetchBufferTest, LruReplacement)
{
    BTBPrefetchBuffer buf(2);
    BTBEntry e;
    e.bbStart = 0x1000;
    buf.insert(e);
    e.bbStart = 0x2000;
    buf.insert(e);
    EXPECT_TRUE(buf.contains(0x1000));
    e.bbStart = 0x3000;
    buf.insert(e); // evicts 0x1000 (oldest)
    EXPECT_FALSE(buf.contains(0x1000));
    EXPECT_TRUE(buf.contains(0x2000));
    EXPECT_TRUE(buf.contains(0x3000));
}

TEST(PrefetchBufferTest, DuplicateInsertRefreshes)
{
    BTBPrefetchBuffer buf(2);
    BTBEntry e;
    e.bbStart = 0x1000;
    buf.insert(e);
    e.bbStart = 0x2000;
    buf.insert(e);
    e.bbStart = 0x1000; // refresh: 0x2000 becomes LRU
    buf.insert(e);
    e.bbStart = 0x3000;
    buf.insert(e);
    EXPECT_TRUE(buf.contains(0x1000));
    EXPECT_FALSE(buf.contains(0x2000));
}

// ---------------------------------------------------------------------
// Spatial footprints
// ---------------------------------------------------------------------

TEST(FootprintTest, EightBitFormatLayout)
{
    const auto fmt = FootprintFormat::eightBit();
    EXPECT_EQ(fmt.bits(), 8u);
    EXPECT_TRUE(fmt.inRange(-2));
    EXPECT_TRUE(fmt.inRange(-1));
    EXPECT_FALSE(fmt.inRange(0)); // target block is implicit
    EXPECT_TRUE(fmt.inRange(1));
    EXPECT_TRUE(fmt.inRange(6));
    EXPECT_FALSE(fmt.inRange(7));
    EXPECT_FALSE(fmt.inRange(-3));
}

TEST(FootprintTest, BitIndicesDistinct)
{
    const auto fmt = FootprintFormat::eightBit();
    std::set<unsigned> seen;
    for (int off = -2; off <= 6; ++off) {
        if (off == 0)
            continue;
        const unsigned idx = fmt.bitIndex(off);
        EXPECT_LT(idx, 8u);
        EXPECT_TRUE(seen.insert(idx).second) << "offset " << off;
    }
}

TEST(FootprintTest, SetTestRoundTrip)
{
    const auto fmt = FootprintFormat::eightBit();
    SpatialFootprint fp;
    fp.set(2, fmt);
    fp.set(-1, fmt);
    fp.set(5, fmt);
    EXPECT_TRUE(fp.test(2, fmt));
    EXPECT_TRUE(fp.test(-1, fmt));
    EXPECT_TRUE(fp.test(5, fmt));
    EXPECT_FALSE(fp.test(1, fmt));
    EXPECT_FALSE(fp.test(-2, fmt));
    EXPECT_EQ(fp.popCount(), 3u);
}

TEST(FootprintTest, OutOfRangeSetIsDropped)
{
    const auto fmt = FootprintFormat::eightBit();
    SpatialFootprint fp;
    fp.set(10, fmt);
    fp.set(-4, fmt);
    EXPECT_TRUE(fp.empty());
}

TEST(FootprintTest, ForEachSetVisitsAll)
{
    const auto fmt = FootprintFormat::eightBit();
    SpatialFootprint fp;
    fp.set(-2, fmt);
    fp.set(3, fmt);
    fp.set(6, fmt);
    std::set<int> offsets;
    fp.forEachSet(fmt, [&](int off) { offsets.insert(off); });
    EXPECT_EQ(offsets, (std::set<int>{-2, 3, 6}));
}

TEST(FootprintTest, ThirtyTwoBitFormat)
{
    const auto fmt = FootprintFormat::thirtyTwoBit();
    EXPECT_EQ(fmt.bits(), 32u);
    SpatialFootprint fp;
    fp.set(-8, fmt);
    fp.set(24, fmt);
    EXPECT_TRUE(fp.test(-8, fmt));
    EXPECT_TRUE(fp.test(24, fmt));
    EXPECT_FALSE(fmt.inRange(25));
}

TEST(FootprintTest, ModeNames)
{
    EXPECT_STREQ(footprintModeName(FootprintMode::BitVector8),
                 "8-bit-vector");
    EXPECT_STREQ(footprintModeName(FootprintMode::EntireRegion),
                 "entire-region");
}

// ---------------------------------------------------------------------
// Shotgun BTB organization + storage accounting
// ---------------------------------------------------------------------

TEST(ShotgunBTBTest, PaperStorageCosts)
{
    ShotgunBTB btbs{ShotgunBTBConfig{}};
    // Sec 5.2 exact figures.
    EXPECT_EQ(btbs.ubtb().tagBits(), 38u);
    EXPECT_EQ(btbs.ubtb().bitsPerEntry(), 106u);
    EXPECT_NEAR(btbs.ubtb().storageBits() / 8.0 / 1024.0, 19.87, 0.01);

    EXPECT_EQ(btbs.cbtb().tagBits(), 41u);
    EXPECT_EQ(btbs.cbtb().bitsPerEntry(), 70u);
    EXPECT_NEAR(btbs.cbtb().storageBits() / 8.0 / 1024.0, 1.09, 0.01);

    EXPECT_EQ(btbs.rib().tagBits(), 39u);
    EXPECT_EQ(btbs.rib().bitsPerEntry(), 45u);
    EXPECT_NEAR(btbs.rib().storageBits() / 8.0 / 1024.0, 2.81, 0.01);

    // Total 23.77KB ~= the 2K conventional BTB's 23.25KB.
    EXPECT_NEAR(btbs.storageBits() / 8.0 / 1024.0, 23.78, 0.02);
    ConventionalBTB conv(2048);
    const double ratio = double(btbs.storageBits()) /
                         double(conv.storageBits());
    EXPECT_GT(ratio, 0.97);
    EXPECT_LT(ratio, 1.05);
}

TEST(ShotgunBTBTest, LookupRoutesByType)
{
    ShotgunBTB btbs{ShotgunBTBConfig{}};

    BTBEntry call;
    call.bbStart = 0x400100;
    call.target = 0x400800;
    call.numInstrs = 4;
    call.type = BranchType::Call;
    btbs.insertByType(call);

    BTBEntry ret;
    ret.bbStart = 0x400900;
    ret.numInstrs = 3;
    ret.type = BranchType::Return;
    btbs.insertByType(ret);

    BTBEntry cond;
    cond.bbStart = 0x400200;
    cond.target = 0x400300;
    cond.numInstrs = 6;
    cond.type = BranchType::Conditional;
    btbs.insertByType(cond);

    auto r = btbs.lookup(0x400100);
    EXPECT_EQ(r.where, ShotgunHit::UBTBHit);
    ASSERT_NE(r.uentry, nullptr);
    EXPECT_TRUE(r.uentry->isCall);

    r = btbs.lookup(0x400900);
    EXPECT_EQ(r.where, ShotgunHit::RIBHit);
    EXPECT_EQ(r.entry.type, BranchType::Return);

    r = btbs.lookup(0x400200);
    EXPECT_EQ(r.where, ShotgunHit::CBTBHit);
    EXPECT_EQ(r.entry.target, 0x400300u);

    r = btbs.lookup(0x400500);
    EXPECT_EQ(r.where, ShotgunHit::Miss);
    EXPECT_FALSE(r.hit());
}

TEST(ShotgunBTBTest, TrapsRouteLikeCalls)
{
    ShotgunBTB btbs{ShotgunBTBConfig{}};
    BTBEntry trap;
    trap.bbStart = 0x400100;
    trap.target = kOsCodeBase;
    trap.numInstrs = 2;
    trap.type = BranchType::Trap;
    btbs.insertByType(trap);
    auto r = btbs.lookup(0x400100);
    EXPECT_EQ(r.where, ShotgunHit::UBTBHit);
    EXPECT_TRUE(r.uentry->isCall);
}

TEST(ShotgunBTBTest, InsertPreservesFootprints)
{
    ShotgunBTB btbs{ShotgunBTBConfig{}};
    UBTBEntry u;
    u.bbStart = 0x400100;
    u.target = 0x400800;
    u.numInstrs = 4;
    u.isCall = true;
    auto &stored = btbs.ubtb().insert(u);
    stored.callFootprint.set(2, btbs.format());

    // A retire-time refresh must not wipe the recorded footprint.
    UBTBEntry refresh = u;
    btbs.ubtb().insert(refresh);
    const UBTBEntry *after = btbs.ubtb().probe(0x400100);
    ASSERT_NE(after, nullptr);
    EXPECT_TRUE(after->callFootprint.test(2, btbs.format()));

    // Unless explicitly reset.
    btbs.ubtb().insert(refresh, true);
    after = btbs.ubtb().probe(0x400100);
    EXPECT_TRUE(after->callFootprint.empty());
}

TEST(ShotgunBTBTest, BudgetScaling)
{
    const auto c512 = ShotgunBTBConfig::forBudgetOf(512);
    EXPECT_EQ(c512.ubtbEntries, 384u);
    EXPECT_EQ(c512.ribEntries, 128u);
    EXPECT_EQ(c512.cbtbEntries, 32u);

    const auto c2k = ShotgunBTBConfig::forBudgetOf(2048);
    EXPECT_EQ(c2k.ubtbEntries, 1536u);
    EXPECT_EQ(c2k.ribEntries, 512u);
    EXPECT_EQ(c2k.cbtbEntries, 128u);

    const auto c8k = ShotgunBTBConfig::forBudgetOf(8192);
    EXPECT_EQ(c8k.ubtbEntries, 4096u);
    EXPECT_EQ(c8k.ribEntries, 1024u);
    EXPECT_EQ(c8k.cbtbEntries, 4096u);
}

TEST(ShotgunBTBTest, BudgetStaysComparableAcrossSweep)
{
    // For every sweep point the combined Shotgun storage must stay
    // within ~15% of the equivalent conventional BTB (Fig 13's
    // equal-budget premise). The 8K point redistributes capacity and
    // sits slightly under budget by design.
    for (std::size_t entries : {512, 1024, 2048, 4096}) {
        ShotgunBTB btbs{ShotgunBTBConfig::forBudgetOf(entries)};
        ConventionalBTB conv(entries);
        const double ratio = double(btbs.storageBits()) /
                             double(conv.storageBits());
        EXPECT_GT(ratio, 0.85) << entries;
        EXPECT_LT(ratio, 1.15) << entries;
    }
}

TEST(ShotgunBTBTest, NoBitVectorModeGrowsUBTB)
{
    const auto cfg = ShotgunBTBConfig::forMode(FootprintMode::NoBitVector);
    EXPECT_GT(cfg.ubtbEntries, 1536u);
    ShotgunBTB with_fp{ShotgunBTBConfig{}};
    ShotgunBTB without_fp{cfg};
    // Equal storage (within a way-rounding tolerance).
    const double ratio = double(without_fp.storageBits()) /
                         double(with_fp.storageBits());
    EXPECT_GT(ratio, 0.95);
    EXPECT_LT(ratio, 1.05);
}

// ---------------------------------------------------------------------
// Footprint recorder
// ---------------------------------------------------------------------

BBRecord
makeRecord(Addr start, unsigned instrs, BranchType type, Addr target,
           bool taken = true)
{
    BBRecord r;
    r.startAddr = start;
    r.numInstrs = static_cast<std::uint8_t>(instrs);
    r.type = type;
    r.target = target;
    r.taken = taken;
    return r;
}

TEST(RecorderTest, RecordsCallTargetRegionFootprint)
{
    ShotgunBTB btbs{ShotgunBTBConfig{}};
    FootprintRecorder recorder(btbs);

    // Call at 0x400100 -> function at 0x410000.
    recorder.retire(makeRecord(0x400100, 4, BranchType::Call, 0x410000));
    // Inside the callee: touch blocks +0, +2 (via a taken cond), +3.
    recorder.retire(makeRecord(0x410000, 8, BranchType::Conditional,
                               0x410080, true)); // block +0 -> +2
    recorder.retire(makeRecord(0x410080, 16, BranchType::None, 0,
                               false)); // blocks +2..+3
    // Return closes the region.
    recorder.retire(makeRecord(0x4100c0, 2, BranchType::Return,
                               0x400110));

    const UBTBEntry *call = btbs.ubtb().probe(0x400100);
    ASSERT_NE(call, nullptr);
    const auto &fmt = btbs.format();
    EXPECT_TRUE(call->callFootprint.test(2, fmt));
    EXPECT_TRUE(call->callFootprint.test(3, fmt));
    EXPECT_FALSE(call->callFootprint.test(1, fmt));
    EXPECT_FALSE(call->callFootprint.test(-1, fmt));
}

TEST(RecorderTest, ReturnRegionStoredWithCall)
{
    ShotgunBTB btbs{ShotgunBTBConfig{}};
    FootprintRecorder recorder(btbs);

    recorder.retire(makeRecord(0x400100, 4, BranchType::Call, 0x410000));
    recorder.retire(makeRecord(0x410000, 4, BranchType::Return,
                               0x400110));
    // Return region: fall-through of the call; touch +1 then call
    // again (closing the return region).
    recorder.retire(makeRecord(0x400110, 16, BranchType::None, 0));
    recorder.retire(makeRecord(0x400150, 4, BranchType::Call, 0x410000));

    const UBTBEntry *call = btbs.ubtb().probe(0x400100);
    ASSERT_NE(call, nullptr);
    EXPECT_TRUE(call->returnFootprint.test(1, btbs.format()))
        << "return region blocks must be stored with the call";
}

TEST(RecorderTest, RegionsOnWorkloadStreamMostlyCovered)
{
    // Property (Fig 3): with the 8-bit format, the large majority of
    // region accesses fit the vector on a realistic workload.
    ProgramParams params;
    params.numFuncs = 400;
    params.numOsFuncs = 80;
    params.numTopLevel = 8;
    params.seed = 123;
    Program prog(params);
    TraceGenerator gen(prog, 9);
    ShotgunBTB btbs{ShotgunBTBConfig{}};
    FootprintRecorder recorder(btbs);

    BBRecord rec;
    for (int i = 0; i < 500000; ++i) {
        gen.next(rec);
        recorder.retire(rec);
    }
    ASSERT_GT(recorder.regionsClosed(), 10000u);
    const double covered =
        double(recorder.regionsFullyCovered()) /
        double(recorder.regionsClosed());
    EXPECT_GT(covered, 0.6);
    EXPECT_GT(recorder.footprintsStored(), 0u);
}

} // namespace
} // namespace shotgun
