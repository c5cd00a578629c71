/**
 * @file
 * Tests for the RDIP scheme (Sec 4.3 discussion comparison) and the
 * no-RIB design ablation (Sec 4.2.1).
 */

#include <gtest/gtest.h>

#include "core/shotgun.hh"
#include "prefetch/rdip.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"

namespace shotgun
{
namespace
{

constexpr std::uint64_t kWarmup = 300000;
constexpr std::uint64_t kMeasure = 600000;

SimResult
quickRun(const WorkloadPreset &preset, const SimConfig &base_config)
{
    SimConfig config = base_config;
    config.workload = preset;
    config.warmupInstructions = kWarmup;
    config.measureInstructions = kMeasure;
    return runSimulation(config);
}

TEST(RdipTest, StorageIsNearPaperFigure)
{
    // Sec 4.3: "RDIP incurs a high storage cost, 64KB per core".
    // Our default configuration: ~64-70KB of miss-table metadata on
    // top of the conventional BTB.
    ProgramParams params;
    params.numFuncs = 64;
    params.numOsFuncs = 16;
    params.numTrapHandlers = 4;
    params.numTopLevel = 4;
    Program program(params);
    Predecoder predecoder(program);
    CoreParams cp;
    OutcomeCursor outcomes(std::make_shared<OutcomeLog>(cp));
    ReturnAddressStack ras(32);
    HierarchyParams hp;
    InstrHierarchy mem(hp);
    SchemeContext ctx{&outcomes, &ras, &mem, &predecoder, &cp};
    RdipScheme rdip(ctx);
    ConventionalBTB btb(2048);

    const double metadata_kb =
        (rdip.storageBits() - btb.storageBits()) / 8.0 / 1024.0;
    EXPECT_GT(metadata_kb, 48.0);
    EXPECT_LT(metadata_kb, 80.0);
}

TEST(RdipTest, PrefetchesOnRecurringContext)
{
    const auto preset = makePreset(WorkloadId::Zeus);
    SimConfig config = SimConfig::make(preset, SchemeType::RDIP);
    const SimResult rdip = quickRun(preset, config);
    const SimResult base = baselineFor(preset, kWarmup, kMeasure);
    // RDIP must actually prefetch and must help.
    EXPECT_GT(rdip.prefetchesIssued, 0u);
    EXPECT_GT(speedup(rdip, base), 1.0);
}

TEST(RdipTest, ShotgunBeatsRdipEverywhere)
{
    // The Sec 4.3 claim: Shotgun is more accurate (predicts every
    // branch) and also covers the BTB, so it must win.
    for (WorkloadId id :
         {WorkloadId::Zeus, WorkloadId::Oracle, WorkloadId::DB2}) {
        const auto preset = makePreset(id);
        const SimResult base = baselineFor(preset, kWarmup, kMeasure);
        const SimResult rdip = quickRun(
            preset, SimConfig::make(preset, SchemeType::RDIP));
        const SimResult shot = quickRun(
            preset, SimConfig::make(preset, SchemeType::Shotgun));
        EXPECT_GT(speedup(shot, base), speedup(rdip, base))
            << workloadName(id);
    }
}

TEST(RdipTest, DoesNotPrefillBTB)
{
    // RDIP's BTB-miss behaviour is baseline-like: misfetches remain.
    const auto preset = makePreset(WorkloadId::Oracle);
    const SimResult rdip =
        quickRun(preset, SimConfig::make(preset, SchemeType::RDIP));
    const SimResult shot = quickRun(
        preset, SimConfig::make(preset, SchemeType::Shotgun));
    EXPECT_GT(rdip.stalls.misfetch + rdip.stalls.mispredict,
              shot.stalls.misfetch + shot.stalls.mispredict);
}

// ---------------------------------------------------------------------
// No-RIB ablation
// ---------------------------------------------------------------------

TEST(NoRibTest, ReturnsRouteToUBTB)
{
    ShotgunBTB btbs{ShotgunBTBConfig::withoutRIB()};
    BTBEntry ret;
    ret.bbStart = 0x400100;
    ret.numInstrs = 2;
    ret.type = BranchType::Return;
    btbs.insertByType(ret);

    EXPECT_EQ(btbs.rib().occupancy(), 0u);
    EXPECT_EQ(btbs.ubtb().returnOccupancy(), 1u);
    const auto result = btbs.lookup(0x400100);
    EXPECT_EQ(result.where, ShotgunHit::RIBHit);
    EXPECT_EQ(result.entry.type, BranchType::Return);
}

TEST(NoRibTest, DedicatedConfigKeepsUBTBReturnFree)
{
    ShotgunBTB btbs{ShotgunBTBConfig{}};
    BTBEntry ret;
    ret.bbStart = 0x400100;
    ret.numInstrs = 2;
    ret.type = BranchType::Return;
    btbs.insertByType(ret);
    EXPECT_EQ(btbs.ubtb().returnOccupancy(), 0u);
    EXPECT_EQ(btbs.rib().occupancy(), 1u);
}

TEST(NoRibTest, EqualStorageBudget)
{
    ShotgunBTB with{ShotgunBTBConfig{}};
    ShotgunBTB without{ShotgunBTBConfig::withoutRIB()};
    const double ratio =
        double(without.storageBits()) / double(with.storageBits());
    EXPECT_GT(ratio, 0.95);
    EXPECT_LT(ratio, 1.05);
}

TEST(NoRibTest, ReturnsConsumeUBTBCapacityOnWorkload)
{
    // Sec 4.2.1: "25% of U-BTB entries are occupied by return
    // instructions" when returns are not segregated. Verify the
    // occupancy is substantial on a real retire stream.
    const auto preset = makePreset(WorkloadId::Apache);
    const Program &program = programFor(preset);
    ShotgunBTB btbs{ShotgunBTBConfig::withoutRIB()};
    FootprintRecorder recorder(btbs);
    TraceGenerator gen(program, 1);
    BBRecord rec;
    for (int i = 0; i < 300000; ++i) {
        gen.next(rec);
        recorder.retire(rec);
    }
    const double frac = double(btbs.ubtb().returnOccupancy()) /
                        double(btbs.ubtb().occupancy());
    EXPECT_GT(frac, 0.15);
    EXPECT_LT(frac, 0.55);
}

TEST(NoRibTest, SimulationRunsEndToEnd)
{
    const auto preset = makePreset(WorkloadId::Streaming);
    SimConfig config = SimConfig::make(preset, SchemeType::Shotgun);
    config.scheme.shotgun = ShotgunBTBConfig::withoutRIB();
    const SimResult result = quickRun(preset, config);
    EXPECT_GT(result.ipc, 0.0);
    const SimResult base = baselineFor(preset, kWarmup, kMeasure);
    EXPECT_GT(speedup(result, base), 1.0);
}

} // namespace
} // namespace shotgun
