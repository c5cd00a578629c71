/**
 * @file
 * Golden results: the canonical-encoding digest of a fixed set of
 * simulations, compared exactly. Every simulated counter feeds the
 * canonical SimResult encoding, so a digest pins the whole trajectory
 * of its point: a speed change to the core loop or to a modelled
 * structure must leave every digest here untouched.
 *
 * The points cover all seven schemes on the smallest (nutch) and the
 * largest (oracle) instruction footprint, the probe layer, the two
 * Shotgun ablations whose U-BTB set counts are not powers of two, and
 * one recorded-trace replay.
 *
 * A digest may only be re-recorded by a change that deliberately moves
 * simulation results, and the reason belongs in that change's
 * description. A failing point prints its new digest in the table's
 * own format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/json.hh"
#include "service/codec.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/presets.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace
{

constexpr std::uint64_t kWarmup = 100000;
constexpr std::uint64_t kMeasure = 200000;

struct Golden
{
    const char *point;
    const char *digest;
};

// Recorded on the simulator before the idle-cycle skipping and the
// flat front-end structures landed; they must never change with a
// pure speed change.
const Golden kGolden[] = {
    {"nutch/baseline", "7ec3a34fea02a8e1"},
    {"nutch/fdip", "c302094d124c8822"},
    {"nutch/boomerang", "b8569d4110a6315e"},
    {"nutch/confluence", "22ac6871abc5c1f4"},
    {"nutch/shotgun", "1535f66ecb1286c7"},
    {"nutch/rdip", "51f1deb01bc75464"},
    {"nutch/ideal", "5a63c89080f9f51b"},
    {"oracle/baseline", "8a3e62975dd64f1a"},
    {"oracle/fdip", "1454830ee035d836"},
    {"oracle/boomerang", "6812bfdd3e998a5a"},
    {"oracle/confluence", "14343e84983c5426"},
    {"oracle/shotgun", "d485addf7b19ad1b"},
    {"oracle/rdip", "c7f7176cefa44b9c"},
    {"oracle/ideal", "b5871389c97203e1"},
    {"oracle/shotgun+uarch", "a7e23810b3b7ff63"},
    {"oracle/confluence+uarch", "ed3d2018119ae8f2"},
    {"oracle/shotgun-no-bit-vector", "938262514410fb9c"},
    {"oracle/shotgun-no-rib", "3385c136a7dc2f63"},
    {"trace-nutch/shotgun", "1152223b215e2d73"},
};

const SchemeType kAllSchemes[] = {
    SchemeType::Baseline,   SchemeType::FDIP,    SchemeType::Boomerang,
    SchemeType::Confluence, SchemeType::Shotgun, SchemeType::RDIP,
    SchemeType::Ideal,
};

SimConfig
pointConfig(const WorkloadPreset &preset, SchemeType type)
{
    SimConfig config = SimConfig::make(preset, type);
    config.warmupInstructions = kWarmup;
    config.measureInstructions = kMeasure;
    return config;
}

std::string
resultDigest(const SimResult &result)
{
    return service::fingerprintHex(
        json::fnv1a64(service::encodeSimResult(result).dump()));
}

/** Every golden point, in kGolden order. */
std::vector<std::pair<std::string, SimConfig>>
goldenPoints(const std::string &trace_path)
{
    std::vector<std::pair<std::string, SimConfig>> points;
    for (WorkloadId id : {WorkloadId::Nutch, WorkloadId::Oracle}) {
        const WorkloadPreset preset = makePreset(id);
        for (SchemeType type : kAllSchemes) {
            points.emplace_back(preset.name + "/" + schemeTypeName(type),
                                pointConfig(preset, type));
        }
    }

    const WorkloadPreset oracle = makePreset(WorkloadId::Oracle);
    for (SchemeType type : {SchemeType::Shotgun, SchemeType::Confluence}) {
        SimConfig probed = pointConfig(oracle, type);
        probed.core.uarchProbes = true;
        points.emplace_back(
            std::string("oracle/") + schemeTypeName(type) + "+uarch",
            probed);
    }

    SimConfig no_bv = pointConfig(oracle, SchemeType::Shotgun);
    no_bv.scheme.shotgun =
        ShotgunBTBConfig::forMode(FootprintMode::NoBitVector);
    points.emplace_back("oracle/shotgun-no-bit-vector", no_bv);

    SimConfig no_rib = pointConfig(oracle, SchemeType::Shotgun);
    no_rib.scheme.shotgun = ShotgunBTBConfig::withoutRIB();
    points.emplace_back("oracle/shotgun-no-rib", no_rib);

    points.emplace_back(
        "trace-nutch/shotgun",
        pointConfig(presetByName("trace:" + trace_path + ":trace-nutch"),
                    SchemeType::Shotgun));
    return points;
}

TEST(GoldenResultsTest, AblationsUseNonPowerOfTwoSets)
{
    // The two ablations exist here to exercise the modulo set-index
    // path of SetAssocTable: 1806 / 6 and 1746 / 6 U-BTB sets.
    EXPECT_EQ(ShotgunBTBConfig::forMode(FootprintMode::NoBitVector)
                      .ubtbEntries /
                  6,
              301u);
    EXPECT_EQ(ShotgunBTBConfig::withoutRIB().ubtbEntries / 6, 291u);
}

TEST(GoldenResultsTest, DigestsMatchTheRecordedSimulator)
{
    const WorkloadPreset nutch = makePreset(WorkloadId::Nutch);
    const std::string path = "/tmp/shotgun_test_golden_nutch.trace";
    {
        const Program &program = programFor(nutch);
        TraceGenerator gen(program, 1);
        recordTraceInstructions(gen, nutch, 1, path,
                                kWarmup + kMeasure + 50000);
    }

    const auto points = goldenPoints(path);
    ASSERT_EQ(points.size(), std::size(kGolden));
    std::string mismatches;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &[name, config] = points[i];
        ASSERT_EQ(name, kGolden[i].point);
        const std::string got = resultDigest(runSimulation(config));
        if (got != kGolden[i].digest) {
            mismatches += "    {\"" + name + "\", \"" + got + "\"},\n";
            ADD_FAILURE() << name << ": digest " << got
                          << " != recorded " << kGolden[i].digest;
        }
    }
    if (!mismatches.empty())
        std::printf("new digests:\n%s", mismatches.c_str());
    std::remove(path.c_str());
}

} // namespace
} // namespace shotgun
