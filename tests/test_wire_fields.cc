/**
 * @file
 * The field lists' encodings agree byte for byte (sim/fields.hh,
 * common/wire.hh): the streaming canonical writer against the
 * json::Value encoders for configs, results and window deltas; the
 * hashing writer against FNV-1a of the written bytes; and the trace
 * archive against a committed trace header (tests/data/db2_header.trace)
 * written before the field lists existed, which pins the binary layout
 * independently of them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "prefetch/factory.hh"
#include "service/codec.hh"
#include "sim/canonical.hh"
#include "sim/simulator.hh"
#include "trace/presets.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace
{

using json::Value;

const SchemeType kAllSchemes[] = {
    SchemeType::Baseline,   SchemeType::FDIP,    SchemeType::Boomerang,
    SchemeType::Confluence, SchemeType::Shotgun, SchemeType::RDIP,
    SchemeType::Ideal,
};

/** Writer bytes == tree bytes, the hash matches, and decode inverts. */
void
expectConfigIdentity(const SimConfig &config)
{
    const std::string tree = encodeSimConfig(config).dump();
    EXPECT_EQ(canonicalText(config), tree);
    EXPECT_EQ(configFingerprint(config),
              fingerprintHex(json::fnv1a64(tree)));
    EXPECT_EQ(canonicalText(service::decodeSimConfig(Value::parse(tree))),
              tree);
}

TEST(WireFieldsTest, ConfigWriterMatchesTreeForEveryPresetAndScheme)
{
    for (const WorkloadPreset &preset : allPresets()) {
        for (SchemeType type : kAllSchemes) {
            SCOPED_TRACE(preset.name + "/" + schemeTypeName(type));
            expectConfigIdentity(SimConfig::make(preset, type));
        }
    }
}

TEST(WireFieldsTest, ConfigWriterMatchesTreeOffTheDefaults)
{
    SimConfig config = SimConfig::make(makePreset(WorkloadId::Zeus),
                                       SchemeType::Confluence);
    config.measureInstructions = 4000000;
    config.window.measureStart = 1000000;
    config.window.measureEnd = 3000000;
    config.core.uarchProbes = true;
    config.core.issueEfficiency = 0.37;
    config.workload.name = "quote\" back\\slash\ttab\x01 ctl";
    config.workload.program.name = "line\nbreak";
    config.workload.tracePath = "/traces/zeus \"copy\".trace";
    config.scheme.shotgun.mode = FootprintMode::FiveBlocks;
    expectConfigIdentity(config);

    const std::string text = canonicalText(config);
    EXPECT_NE(text.find("\"issue_efficiency\":0.37"), std::string::npos)
        << text;
    EXPECT_NE(text.find("quote\\\" back\\\\slash\\ttab\\u0001 ctl"),
              std::string::npos)
        << text;
}

TEST(WireFieldsTest, GoldenFingerprintIsTheStreamedHash)
{
    const SimConfig config = SimConfig::make(
        makePreset(WorkloadId::Nutch), SchemeType::Shotgun);
    // test_service_codec's golden, re-recorded with it in protocol 4.
    EXPECT_EQ(configFingerprint(config), "cd5a10658ae26b57");
}

/** A short run of a small program, probed or not. */
SimConfig
tinyConfig(bool probes)
{
    WorkloadPreset preset;
    preset.name = "wire-tiny";
    preset.program.name = "wire-tiny";
    preset.program.numFuncs = 150;
    preset.program.numOsFuncs = 30;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;
    SimConfig config = SimConfig::make(preset, SchemeType::Shotgun);
    config.warmupInstructions = 20000;
    config.measureInstructions = 60000;
    config.core.uarchProbes = probes;
    return config;
}

TEST(WireFieldsTest, ResultAndDeltaWritersMatchTrees)
{
    for (bool probes : {false, true}) {
        SCOPED_TRACE(probes ? "probed" : "unprobed");
        SimConfig config = tinyConfig(probes);
        const SimResult result = runSimulation(config);
        ASSERT_EQ(result.uarch.enabled, probes);
        const std::string tree = encodeSimResult(result).dump();
        EXPECT_EQ(canonicalText(result), tree);
        EXPECT_EQ(tree.find("\"uarch\"") != std::string::npos, probes);
        EXPECT_TRUE(service::decodeSimResult(Value::parse(tree)) ==
                    result);

        config.window.measureStart = 10000;
        config.window.measureEnd = 40000;
        const StatsDelta delta = runSimulationDelta(config).stats;
        EXPECT_EQ(canonicalText(delta), encodeStatsDelta(delta).dump());
    }
}

TEST(WireFieldsTest, HashingWriterIsFnvOfTheWrittenBytes)
{
    const auto write = [](json::Writer &w) {
        w.beginObject();
        w.key("a").number(std::uint64_t{18446744073709551615ull});
        w.key("b").beginArray();
        w.number(-0.5);
        w.boolean(false);
        w.null();
        w.beginObject();
        w.endObject();
        w.endArray();
        w.key("c\"").string("\x1f");
        w.endObject();
    };
    std::string text;
    json::Writer out(text);
    write(out);
    EXPECT_EQ(text, "{\"a\":18446744073709551615,\"b\":[-0.5,false,null,"
                    "{}],\"c\\\"\":\"\\u001f\"}");
    EXPECT_EQ(Value::parse(text).dump(), text);
    json::Writer hashing;
    write(hashing);
    EXPECT_EQ(hashing.hash(), json::fnv1a64(text));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(WireFieldsTest, TraceHeaderMatchesTheRecordedFixture)
{
    // The fixture holds DB2's preset, trace seed 0x5eed and no
    // records; its writer was given a trace path that must not reach
    // the file.
    const std::string fixture =
        std::string(SHOTGUN_TEST_DATA_DIR) + "/db2_header.trace";
    const std::string expected = readFile(fixture);
    ASSERT_FALSE(expected.empty()) << fixture;

    WorkloadPreset preset = makePreset(WorkloadId::DB2);
    preset.tracePath = "not/in/the/header.trace";
    const std::string path = "/tmp/shotgun_wire_header.trace";
    {
        TraceWriter writer(path, preset, 0x5eed);
        writer.close();
    }
    EXPECT_EQ(readFile(path), expected);
    std::remove(path.c_str());

    // And the reading side recovers the preset exactly.
    const TraceInfo info = readTraceInfo(fixture);
    EXPECT_EQ(info.traceSeed, 0x5eedu);
    EXPECT_EQ(info.records, 0u);
    SimConfig recovered = SimConfig::make(info.preset, SchemeType::RDIP);
    EXPECT_EQ(recovered.workload.tracePath, fixture);
    recovered.workload.tracePath = preset.tracePath;
    EXPECT_EQ(canonicalText(recovered),
              canonicalText(SimConfig::make(preset, SchemeType::RDIP)));
}

} // namespace
} // namespace shotgun
