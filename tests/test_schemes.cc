/**
 * @file
 * Unit tests of the control-flow delivery schemes' defining
 * behaviours, driven directly through the Scheme interface (without
 * the full core): straight-line speculation and misfetch for
 * baseline/FDIP, reactive resolution and prefetch-buffer staging for
 * Boomerang, footprint-driven region prefetch and C-BTB prefill for
 * Shotgun, and history/replay for Confluence.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/shotgun.hh"
#include "prefetch/baseline.hh"
#include "prefetch/boomerang.hh"
#include "prefetch/confluence.hh"
#include "prefetch/factory.hh"
#include "prefetch/ideal.hh"
#include "trace/generator.hh"

namespace shotgun
{
namespace
{

/** A self-contained scheme testbench with a tiny program. */
struct SchemeBench
{
    SchemeBench()
        : program(makeParams()), predecoder(program)
    {
        hierarchyParams.mesh.backgroundLoad = 0.0;
        mem = std::make_unique<InstrHierarchy>(hierarchyParams);
        ctx.outcomes = &outcomes;
        ctx.ras = &ras;
        ctx.mem = mem.get();
        ctx.predecoder = &predecoder;
        ctx.params = &coreParams;
    }

    static ProgramParams
    makeParams()
    {
        ProgramParams p;
        p.name = "schemetest";
        p.numFuncs = 120;
        p.numOsFuncs = 24;
        p.numTrapHandlers = 4;
        p.numTopLevel = 4;
        p.seed = 99;
        return p;
    }

    Program program;
    CoreParams coreParams;
    OutcomeCursor outcomes{std::make_shared<OutcomeLog>(coreParams)};
    ReturnAddressStack ras{32};
    HierarchyParams hierarchyParams;
    std::unique_ptr<InstrHierarchy> mem;
    Predecoder predecoder;
    SchemeContext ctx;
};

BBRecord
firstCallRecord(const Program &program)
{
    for (std::uint32_t i = 0; i < program.numBBs(); ++i) {
        const StaticBB &bb = program.bb(i);
        if (bb.type == BranchType::Call) {
            BBRecord rec;
            rec.startAddr = bb.startAddr();
            rec.target = bb.targetAddr();
            rec.numInstrs = bb.numInstrs;
            rec.type = bb.type;
            rec.taken = true;
            return rec;
        }
    }
    ADD_FAILURE() << "no call in test program";
    return BBRecord{};
}

TEST(BaselineSchemeTest, ColdMissIsMisfetchForTakenBranch)
{
    SchemeBench bench;
    BaselineScheme scheme(bench.ctx, false);
    const BBRecord call = firstCallRecord(bench.program);

    BPUResult result;
    scheme.processBB(call, 0, result);
    EXPECT_TRUE(result.btbMiss);
    EXPECT_TRUE(result.misfetch);
    EXPECT_FALSE(result.resolveStall);

    // Decode-time fill: the same block now hits.
    BPUResult second;
    scheme.processBB(call, 10, second);
    EXPECT_FALSE(second.btbMiss);
    EXPECT_FALSE(second.misfetch);
}

TEST(BaselineSchemeTest, NoPrefetchIssued)
{
    SchemeBench bench;
    BaselineScheme scheme(bench.ctx, false);
    const BBRecord call = firstCallRecord(bench.program);
    BPUResult result;
    scheme.processBB(call, 0, result);
    EXPECT_EQ(bench.mem->prefetchesIssued(), 0u);
}

TEST(FdipSchemeTest, IssuesPrefetchProbes)
{
    SchemeBench bench;
    BaselineScheme scheme(bench.ctx, true);
    const BBRecord call = firstCallRecord(bench.program);
    BPUResult result;
    scheme.processBB(call, 0, result);
    EXPECT_GT(bench.mem->prefetchesIssued(), 0u);
}

TEST(BoomerangSchemeTest, ColdMissStallsAndResolves)
{
    SchemeBench bench;
    BoomerangScheme scheme(bench.ctx);
    const BBRecord call = firstCallRecord(bench.program);

    BPUResult result;
    scheme.processBB(call, 0, result);
    EXPECT_TRUE(result.btbMiss);
    EXPECT_TRUE(result.resolveStall);
    EXPECT_FALSE(result.misfetch);
    EXPECT_GT(result.stallUntil, 0u);
    EXPECT_EQ(scheme.resolutions(), 1u);

    // The reactive fill installed the entry: no more stalls.
    BPUResult second;
    scheme.processBB(call, result.stallUntil + 1, second);
    EXPECT_FALSE(second.resolveStall);
}

TEST(BoomerangSchemeTest, PredecodeStagesNeighborsInBuffer)
{
    SchemeBench bench;
    BoomerangScheme scheme(bench.ctx);
    const BBRecord call = firstCallRecord(bench.program);

    BPUResult result;
    scheme.processBB(call, 0, result);
    // Any other BB in the same block must now be staged: migrating it
    // later must not stall.
    for (const std::uint32_t idx :
         bench.program.blockBBs(blockNumber(call.startAddr))) {
        const StaticBBInfo info = bench.program.staticInfo(idx);
        if (info.startAddr == call.startAddr)
            continue;
        EXPECT_TRUE(scheme.prefetchBuffer().contains(info.startAddr));
    }
}

TEST(ShotgunSchemeTest, ColdMissResolvesIntoTypedBTB)
{
    SchemeBench bench;
    ShotgunScheme scheme(bench.ctx);
    const BBRecord call = firstCallRecord(bench.program);

    BPUResult result;
    scheme.processBB(call, 0, result);
    EXPECT_TRUE(result.btbMiss);
    EXPECT_TRUE(result.resolveStall);
    // Calls land in the U-BTB.
    EXPECT_NE(scheme.btbs().ubtb().probe(call.startAddr), nullptr);
}

TEST(ShotgunSchemeTest, FootprintDrivesRegionPrefetch)
{
    SchemeBench bench;
    ShotgunScheme scheme(bench.ctx);
    const BBRecord call = firstCallRecord(bench.program);

    // Install a U-BTB entry with a known footprint.
    UBTBEntry entry;
    entry.bbStart = call.startAddr;
    entry.target = call.target;
    entry.numInstrs = call.numInstrs;
    entry.isCall = true;
    auto &stored = scheme.btbs().ubtb().insert(entry);
    stored.callFootprint.set(2, scheme.btbs().format());
    stored.callFootprint.set(5, scheme.btbs().format());

    BPUResult result;
    scheme.processBB(call, 0, result);
    EXPECT_FALSE(result.resolveStall);

    // Target block +0, +2 and +5 must be in flight (or resident).
    const Addr anchor = blockNumber(call.target);
    for (Addr offset : {Addr(0), Addr(2), Addr(5)}) {
        EXPECT_TRUE(bench.mem->inFlight(anchor + offset) ||
                    bench.mem->l1Contains(anchor + offset))
            << "offset " << offset;
    }
    EXPECT_GE(scheme.regionPrefetches(), 3u);
}

TEST(ShotgunSchemeTest, PrefetchedBlockPrefillsCBTB)
{
    SchemeBench bench;
    ShotgunScheme scheme(bench.ctx);

    // Find a conditional BB and deliver its block as a prefetch fill.
    for (std::uint32_t i = 0; i < bench.program.numBBs(); ++i) {
        const StaticBB &bb = bench.program.bb(i);
        if (bb.type != BranchType::Conditional)
            continue;
        scheme.onFill(blockNumber(bb.startAddr()), true, 0);
        EXPECT_NE(scheme.btbs().cbtb().probe(bb.startAddr()), nullptr);
        EXPECT_GT(scheme.btbs().cbtb().prefillCounts().prefills, 0u);
        return;
    }
    FAIL() << "no conditional in test program";
}

TEST(ShotgunSchemeTest, RetireStreamRecordsFootprints)
{
    SchemeBench bench;
    ShotgunScheme scheme(bench.ctx);
    TraceGenerator gen(bench.program, 3);
    BBRecord rec;
    for (int i = 0; i < 200000; ++i) {
        gen.next(rec);
        scheme.onRetire(rec);
    }
    EXPECT_GT(scheme.recorder().footprintsStored(), 1000u);
}

TEST(ShotgunSchemeTest, StorageBudgetMatchesBoomerang)
{
    SchemeBench bench;
    ShotgunScheme shotgun(bench.ctx);
    BoomerangScheme boomerang(bench.ctx);
    const double ratio = double(shotgun.storageBits()) /
                         double(boomerang.storageBits());
    EXPECT_GT(ratio, 0.95);
    EXPECT_LT(ratio, 1.06);
}

// Exact storageBits() of each scheme's metadata (Sec 5.2's entry
// formats); a change to any entry format's bit count moves one of
// these.
std::uint64_t
schemeBits(SchemeType type, const ShotgunBTBConfig &shotgun = {})
{
    SchemeConfig config;
    config.type = type;
    config.shotgun = shotgun;
    return makeScheme(config, SchemeContext{})->storageBits();
}

TEST(StorageBitsPinTest, EverySchemeAtItsDefaults)
{
    EXPECT_EQ(schemeBits(SchemeType::Baseline), 190464u);
    EXPECT_EQ(schemeBits(SchemeType::FDIP), 190464u);
    EXPECT_EQ(schemeBits(SchemeType::Boomerang), 193728u);
    EXPECT_EQ(schemeBits(SchemeType::Confluence), 4710400u);
    EXPECT_EQ(schemeBits(SchemeType::RDIP), 755712u);
    EXPECT_EQ(schemeBits(SchemeType::Shotgun), 198080u);
    EXPECT_EQ(schemeBits(SchemeType::Ideal), 0u);
}

TEST(StorageBitsPinTest, ShotgunAndConventionalAcrossTheBudgetSweep)
{
    const struct
    {
        std::size_t entries;
        std::uint64_t shotgun;
        std::uint64_t conventional;
    } rows[] = {{512, 53056, 48640},
                {1024, 101760, 96256},
                {2048, 198080, 190464},
                {4096, 388544, 376832},
                {8192, 744640, 745472}};
    for (const auto &row : rows) {
        EXPECT_EQ(schemeBits(SchemeType::Shotgun,
                             ShotgunBTBConfig::forBudgetOf(row.entries)),
                  row.shotgun)
            << row.entries;
        EXPECT_EQ(ConventionalBTB(row.entries).storageBits(),
                  row.conventional)
            << row.entries;
    }
}

TEST(StorageBitsPinTest, ShotgunAtEveryFootprintModeAndWithoutRIB)
{
    const std::pair<FootprintMode, std::uint64_t> modes[] = {
        {FootprintMode::NoBitVector, 197804},
        {FootprintMode::BitVector8, 198080},
        {FootprintMode::BitVector32, 271808},
        {FootprintMode::EntireRegion, 191936},
        {FootprintMode::FiveBlocks, 173504}};
    for (const auto &[mode, bits] : modes) {
        EXPECT_EQ(schemeBits(SchemeType::Shotgun,
                             ShotgunBTBConfig::forMode(mode)),
                  bits)
            << footprintModeName(mode);
    }
    EXPECT_EQ(schemeBits(SchemeType::Shotgun,
                         ShotgunBTBConfig::withoutRIB()),
              199046u);
}

TEST(ConfluenceSchemeTest, RecordsAndReplaysHistory)
{
    SchemeBench bench;
    ConfluenceScheme scheme(bench.ctx);

    // Record a block sequence via retires.
    BBRecord rec;
    rec.numInstrs = 4;
    rec.type = BranchType::None;
    for (Addr block = 100; block < 140; ++block) {
        rec.startAddr = blockToAddr(block);
        scheme.onRetire(rec);
    }

    // Trigger a stream at the sequence head.
    scheme.onDemandMiss(100, 10);
    EXPECT_EQ(scheme.streamsStarted(), 1u);

    // Before the metadata round trip completes nothing is issued.
    scheme.tick(11);
    EXPECT_EQ(bench.mem->prefetchesIssued(), 0u);

    // After it completes, replay prefetches ahead.
    const Cycle ready = 10 + bench.mem->mesh().llcLatency(10) + 1;
    scheme.tick(ready);
    EXPECT_GT(bench.mem->prefetchesIssued(), 0u);
    EXPECT_TRUE(bench.mem->inFlight(101));
}

TEST(ConfluenceSchemeTest, NextWakeupTracksTheStream)
{
    // The core skips idle cycles up to nextWakeup(): never while no
    // stream runs, the metadata-ready cycle during the round trip,
    // `now` while replay has blocks to issue, and never again once
    // replay has filled its lookahead window.
    SchemeBench bench;
    ConfluenceScheme scheme(bench.ctx);
    EXPECT_EQ(scheme.nextWakeup(0), kNever);

    BBRecord rec;
    rec.numInstrs = 4;
    rec.type = BranchType::None;
    for (Addr block = 100; block < 140; ++block) {
        rec.startAddr = blockToAddr(block);
        scheme.onRetire(rec);
    }
    EXPECT_EQ(scheme.nextWakeup(5), kNever);

    scheme.onDemandMiss(100, 10);
    const Cycle ready = scheme.nextWakeup(11);
    ASSERT_GT(ready, 11u);
    ASSERT_NE(ready, kNever);
    scheme.tick(ready - 1);
    EXPECT_EQ(bench.mem->prefetchesIssued(), 0u);

    Cycle now = ready;
    EXPECT_EQ(scheme.nextWakeup(now), now);
    while (scheme.nextWakeup(now) == now)
        scheme.tick(now++);
    EXPECT_EQ(bench.mem->prefetchesIssued(),
              ConfluenceParams{}.lookaheadBlocks);
    EXPECT_EQ(scheme.nextWakeup(now), kNever);

    // The demand stream advancing re-opens the window.
    scheme.onDemandBlock(101, now);
    EXPECT_EQ(scheme.nextWakeup(now), now);
}

TEST(ConfluenceSchemeTest, DivergenceKillsStream)
{
    SchemeBench bench;
    ConfluenceScheme scheme(bench.ctx);
    BBRecord rec;
    rec.numInstrs = 4;
    rec.type = BranchType::None;
    for (Addr block = 100; block < 140; ++block) {
        rec.startAddr = blockToAddr(block);
        scheme.onRetire(rec);
    }
    scheme.onDemandMiss(100, 10);
    const Cycle ready = 10 + bench.mem->mesh().llcLatency(10) + 1;
    scheme.tick(ready);
    // Feed demand blocks that do not match the recorded sequence.
    for (Addr block = 5000; block < 5010; ++block)
        scheme.onDemandBlock(block, ready + block);
    EXPECT_GT(scheme.divergences(), 0u);
}

TEST(IdealSchemeTest, NeverStallsOrMisses)
{
    SchemeBench bench;
    IdealScheme scheme(bench.ctx);
    TraceGenerator gen(bench.program, 5);
    BBRecord rec;
    for (int i = 0; i < 50000; ++i) {
        gen.next(rec);
        BPUResult result;
        scheme.processBB(rec, i, result);
        EXPECT_FALSE(result.btbMiss);
        EXPECT_FALSE(result.resolveStall);
        EXPECT_FALSE(result.misfetch);
    }
    EXPECT_TRUE(scheme.idealICache());
}

TEST(FactoryTest, BuildsEveryScheme)
{
    SchemeBench bench;
    for (SchemeType type :
         {SchemeType::Baseline, SchemeType::FDIP, SchemeType::Boomerang,
          SchemeType::Confluence, SchemeType::Shotgun,
          SchemeType::Ideal}) {
        SchemeConfig config;
        config.type = type;
        auto scheme = makeScheme(config, bench.ctx);
        ASSERT_NE(scheme, nullptr);
        EXPECT_STREQ(scheme->name(), schemeTypeName(type));
    }
}

TEST(FactoryTest, NameRoundTrip)
{
    EXPECT_EQ(schemeTypeByName("shotgun"), SchemeType::Shotgun);
    EXPECT_EQ(schemeTypeByName("BOOMERANG"), SchemeType::Boomerang);
    EXPECT_DEATH((void)schemeTypeByName("bogus"), "unknown scheme");
}

} // namespace
} // namespace shotgun
