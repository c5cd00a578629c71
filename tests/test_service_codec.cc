/**
 * @file
 * Tests for the canonical SimConfig encoding (sim/canonical.hh), the
 * strict decoders and SimResult codec (service/codec.hh) and the frame
 * encoders (service/protocol.hh): round-trip equality
 * (including trace-backed workloads and non-default CoreParams),
 * fingerprint stability, and strict malformed-frame rejection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "service/codec.hh"
#include "service/protocol.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace service
{
namespace
{

using json::Value;

/**
 * Round-trip identity at the byte level: decode(encode(x)) encodes to
 * the same canonical bytes. Struct-level equality falls out because
 * the encoding covers every field (which the strict decoder enforces:
 * a field added to the struct but not the codec makes decode's
 * finish() pass but the round-trip test here catch the miss only if
 * serialized -- hence both directions are asserted on real presets).
 */
std::string
canonical(const SimConfig &config)
{
    return encodeSimConfig(config).dump();
}

TEST(ServiceCodecTest, SimConfigRoundTripsForAllPresets)
{
    for (const WorkloadPreset &preset : allPresets()) {
        for (SchemeType type :
             {SchemeType::Baseline, SchemeType::Shotgun,
              SchemeType::Confluence, SchemeType::RDIP}) {
            const SimConfig config = SimConfig::make(preset, type);
            const std::string bytes = canonical(config);
            const SimConfig decoded =
                decodeSimConfig(Value::parse(bytes));
            EXPECT_EQ(canonical(decoded), bytes)
                << preset.name << "/" << schemeTypeName(type);
            EXPECT_EQ(decoded.workload.name, preset.name);
            EXPECT_EQ(decoded.scheme.type, type);
        }
    }
}

TEST(ServiceCodecTest, NonDefaultFieldsSurvive)
{
    SimConfig config =
        SimConfig::make(makePreset(WorkloadId::Oracle),
                        SchemeType::Shotgun);
    config.warmupInstructions = 123;
    config.measureInstructions = 456;
    config.traceSeed = 0xfeedface;
    config.core.fetchWidth = 8;
    config.core.issueEfficiency = 0.75;
    config.core.dataSeed = 0x123456789abcdef0ull;
    config.scheme.shotgun.ubtbEntries = 4096;
    config.scheme.shotgun.mode = FootprintMode::EntireRegion;
    config.scheme.shotgun.dedicatedRIB = false;
    config.scheme.confluence.lookaheadBlocks = 99;
    config.scheme.rdip.signatureDepth = 7;
    config.workload.program.zipfAlpha = 1.23456789012345;

    const SimConfig decoded =
        decodeSimConfig(Value::parse(canonical(config)));
    EXPECT_EQ(canonical(decoded), canonical(config));
    EXPECT_EQ(decoded.core.fetchWidth, 8u);
    EXPECT_EQ(decoded.core.dataSeed, 0x123456789abcdef0ull);
    EXPECT_EQ(decoded.scheme.shotgun.mode,
              FootprintMode::EntireRegion);
    EXPECT_FALSE(decoded.scheme.shotgun.dedicatedRIB);
    EXPECT_EQ(decoded.workload.program.zipfAlpha, 1.23456789012345);
}

TEST(ServiceCodecTest, TraceBackedWorkloadRoundTrips)
{
    // Record a tiny trace, make it a first-class workload via the
    // trace: spec, and push it through the codec both ways.
    WorkloadPreset preset;
    preset.name = "codec-tiny";
    preset.program.name = "codec-tiny";
    preset.program.numFuncs = 120;
    preset.program.numOsFuncs = 30;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;
    preset.program.seed = 0xc0dec;

    const std::string path = "/tmp/shotgun_codec_test.trace";
    Program prog(preset.program);
    TraceGenerator gen(prog, 5);
    recordTrace(gen, preset, 5, path, 2000);

    const WorkloadPreset traced =
        presetByName("trace:" + path + ":codec-tiny");
    EXPECT_EQ(traced.tracePath, path);

    const SimConfig config =
        SimConfig::make(traced, SchemeType::Shotgun);
    const std::string bytes = canonical(config);
    const SimConfig decoded = decodeSimConfig(Value::parse(bytes));
    EXPECT_EQ(canonical(decoded), bytes);
    EXPECT_EQ(decoded.workload.tracePath, path);
    EXPECT_EQ(decoded.workload.program.seed, 0xc0decu);

    // Compact string form: resolved through presetByName(), i.e.
    // from the trace file's self-describing header.
    const WorkloadPreset compact =
        decodeWorkloadPreset(Value::string("trace:" + path));
    EXPECT_EQ(compact.tracePath, path);
    EXPECT_EQ(compact.program.numFuncs, 120u);

    std::remove(path.c_str());

    // With the file gone the compact form must be rejected (decode
    // must never fatal() out of the server).
    EXPECT_THROW(
        decodeWorkloadPreset(Value::string("trace:" + path)),
        CodecError);
}

TEST(ServiceCodecTest, ProbeTraceFileValidatesWithoutFatal)
{
    std::string error;

    // Missing file.
    EXPECT_FALSE(probeTraceFile("/tmp/shotgun_probe_missing.trace", 0,
                                error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);

    // Garbage file.
    const std::string garbage = "/tmp/shotgun_probe_garbage.trace";
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "0123456789abcdef0123456789abcdef";
    }
    EXPECT_FALSE(probeTraceFile(garbage, 0, error));
    EXPECT_NE(error.find("not a shotgun trace"), std::string::npos);
    std::remove(garbage.c_str());

    // Real trace: passes, and the instruction budget is enforced.
    WorkloadPreset preset;
    preset.name = "probe-tiny";
    preset.program.name = "probe-tiny";
    preset.program.numFuncs = 120;
    preset.program.numOsFuncs = 30;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;

    const std::string path = "/tmp/shotgun_probe_test.trace";
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    recordTrace(gen, preset, 1, path, 1000);
    const std::uint64_t instrs = readTraceInfo(path).instructions;

    EXPECT_TRUE(probeTraceFile(path, instrs, error));
    EXPECT_FALSE(probeTraceFile(path, instrs + 1, error));
    EXPECT_NE(error.find("record a longer trace"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ServiceCodecTest, CompactWorkloadStrings)
{
    const WorkloadPreset oracle =
        decodeWorkloadPreset(Value::string("oracle"));
    EXPECT_EQ(oracle.name, "oracle");
    EXPECT_EQ(canonical(SimConfig::make(oracle, SchemeType::Baseline)),
              canonical(SimConfig::make(makePreset(WorkloadId::Oracle),
                                        SchemeType::Baseline)));
    EXPECT_THROW(decodeWorkloadPreset(Value::string("no-such")),
                 CodecError);
}

TEST(ServiceCodecTest, SimResultRoundTrips)
{
    SimResult result;
    result.workload = "oracle";
    result.scheme = "shotgun";
    result.instructions = 5000000;
    result.cycles = 7123456;
    result.ipc = 0.7018239847;
    result.btbMPKI = 45.125;
    result.l1iMPKI = 30.5;
    result.mispredictsPerKI = 7.25;
    result.stalls.icache = 100;
    result.stalls.btbResolve = 200;
    result.stalls.misfetch = 300;
    result.stalls.mispredict = 400;
    result.stalls.other = 500;
    result.frontEndStallCycles = 600;
    result.prefetchAccuracy = 0.875;
    result.avgL1DFillCycles = 21.5;
    result.prefetchesIssued = 12345;
    result.schemeStorageBits = 1ull << 40;

    const Value encoded = encodeSimResult(result);
    const SimResult decoded =
        decodeSimResult(Value::parse(encoded.dump()));
    EXPECT_TRUE(decoded == result);

    // A probed result carries the optional "uarch" member.
    result.uarch.enabled = true;
    result.uarch.activeCycles = 7000000;
    result.uarch.stallBTBMiss = 1234;
    result.uarch.lifecycle[0].issued = 99;
    result.uarch.lifecycle[0].timely = 90;
    result.uarch.btbMissSites = {{0x400123, 17, 2}, {0x400456, 5, 0}};
    result.uarch.l1iMissSites = {{0x7f0000, 3, 1}};
    const std::string probed = encodeSimResult(result).dump();
    EXPECT_EQ(Value::parse(probed).dump(), probed);
    EXPECT_TRUE(decodeSimResult(Value::parse(probed)) == result);
}

TEST(ServiceCodecTest, FingerprintIsStableAndDiscriminates)
{
    const SimConfig config = SimConfig::make(
        makePreset(WorkloadId::Nutch), SchemeType::Shotgun);

    // Stable across processes and releases: a change to the
    // canonical encoding (field order, number formatting, a new
    // field) invalidates every cached fingerprint and must be a
    // conscious decision -- this golden value is the tripwire.
    // (Moved deliberately in protocol 2, which added the "window"
    // member to every canonical config, and again when "uarch_probes"
    // joined the canonical core parameters.)
    EXPECT_EQ(configFingerprint(config), "8d5412b9b6d44732");

    // Identical for an encode/decode round trip.
    const SimConfig decoded =
        decodeSimConfig(Value::parse(encodeSimConfig(config).dump()));
    EXPECT_EQ(configFingerprint(decoded), configFingerprint(config));

    // Any field nudge moves it.
    SimConfig nudged = config;
    nudged.traceSeed += 1;
    EXPECT_NE(configFingerprint(nudged), configFingerprint(config));
    nudged = config;
    nudged.core.ftqEntries += 1;
    EXPECT_NE(configFingerprint(nudged), configFingerprint(config));
    nudged = config;
    nudged.scheme.shotgun.ribWays += 1;
    EXPECT_NE(configFingerprint(nudged), configFingerprint(config));

    EXPECT_EQ(fingerprintHex(0x0123456789abcdefull),
              "0123456789abcdef");
}

TEST(ServiceCodecTest, RejectsMalformedConfigs)
{
    const SimConfig config = SimConfig::make(
        makePreset(WorkloadId::Nutch), SchemeType::Shotgun);
    const std::string bytes = encodeSimConfig(config).dump();

    // Not an object.
    EXPECT_THROW(decodeSimConfig(Value::parse("[1,2]")), CodecError);
    EXPECT_THROW(decodeSimConfig(Value::parse("42")), CodecError);

    // Missing field.
    {
        Value v = Value::parse(bytes);
        Value stripped = Value::object();
        for (const auto &member : v.members()) {
            if (member.first != "trace_seed")
                stripped.set(member.first, member.second);
        }
        EXPECT_THROW(decodeSimConfig(stripped), CodecError);
    }

    // Unknown extra field.
    {
        Value v = Value::parse(bytes);
        v.set("surprise", Value::number(std::uint64_t{1}));
        EXPECT_THROW(decodeSimConfig(v), CodecError);
    }

    // Kind mismatch deep inside (core.ftq_entries as a string).
    {
        const Value v = Value::parse(bytes);
        Value core = Value::object();
        for (const auto &member : v.at("core").members()) {
            core.set(member.first,
                     member.first == "ftq_entries"
                         ? Value::string("x")
                         : member.second);
        }
        Value mutated = Value::object();
        for (const auto &member : v.members()) {
            mutated.set(member.first,
                        member.first == "core" ? core : member.second);
        }
        EXPECT_THROW(decodeSimConfig(mutated), json::JsonError);
    }

    // Unknown enum names.
    {
        std::string mutated = bytes;
        const auto pos = mutated.find("\"type\":\"shotgun\"");
        ASSERT_NE(pos, std::string::npos);
        mutated.replace(pos, 16, "\"type\":\"warpgun\"");
        EXPECT_THROW(decodeSimConfig(Value::parse(mutated)),
                     CodecError);
    }

    // The config with one member's value replaced by `token`.
    const auto with_field = [&](const std::string &key,
                                const std::string &token) {
        const std::string field = "\"" + key + "\":";
        std::string mutated = bytes;
        const auto at = mutated.find(field);
        EXPECT_NE(at, std::string::npos) << key;
        const auto pos = at + field.size();
        mutated.replace(pos, mutated.find_first_of(",}", pos) - pos,
                        token);
        return Value::parse(mutated);
    };

    // A double that overflows to inf must not decode: it would
    // re-encode as the non-JSON token `inf`. Underflow decodes to 0.
    EXPECT_THROW(decodeSimConfig(with_field("issue_efficiency", "1e400")),
                 json::JsonError);
    EXPECT_THROW(decodeSimConfig(with_field("issue_efficiency", "-1e400")),
                 json::JsonError);
    EXPECT_EQ(decodeSimConfig(with_field("l1d_miss_rate", "1e-400"))
                  .workload.l1dMissRate,
              0.0);

    // Configs the simulator cannot run are rejected frames, not
    // crashed or wedged daemons.
    const std::pair<const char *, const char *> unrunnable[] = {
        // SIGFPE: a zero modulus or divisor.
        {"index_ways", "0"},
        {"history_entries", "0"},
        {"ubtb_ways", "0"},
        {"table_ways", "0"},
        // fatal().
        {"ftq_entries", "0"},
        {"ras_entries", "0"},
        {"conventional_entries", "0"},
        {"prefetch_buffer_entries", "0"},
        {"min_bbs_per_func", "1"},
        {"max_call_depth", "4294967295"},
        // Abort.
        {"num_top_level", "0"},
        // Never finishes.
        {"fetch_width", "0"},
        {"retire_width", "0"},
        {"backend_entries", "0"},
        {"bpu_bb_per_cycle", "0"},
        {"issue_efficiency", "0"},
        {"issue_efficiency", "1e-400"},
        {"issue_efficiency", "1e-9"},
        // Undefined behaviour: a stall too large for a Cycle.
        {"mem_level_parallelism", "1e-300"},
    };
    for (const auto &[key, token] : unrunnable)
        EXPECT_THROW(decodeSimConfig(with_field(key, token)), CodecError)
            << key << " = " << token;
}

// ---------------------------------------------------------- protocol

TEST(ServiceProtocolTest, SubmitFrameRoundTrips)
{
    // The 2x2 grid a Fig 7 resubmit sends: nutch and zeus x baseline
    // and shotgun.
    SubmitRequest request;
    request.experiment = "unit";
    request.jobs = 3;
    for (WorkloadId id : {WorkloadId::Nutch, WorkloadId::Zeus}) {
        for (SchemeType type :
             {SchemeType::Baseline, SchemeType::Shotgun}) {
            runner::Experiment exp;
            exp.workload = workloadName(id);
            exp.label = schemeTypeName(type);
            exp.config = SimConfig::make(makePreset(id), type);
            request.grid.push_back(exp);
        }
    }

    const Value frame = Value::parse(encodeSubmit(request));
    EXPECT_EQ(frameType(frame), "submit");
    const std::string bytes = frame.dump();
    EXPECT_EQ(Value::parse(bytes).dump(), bytes);
    const SubmitRequest decoded = decodeSubmit(Value::parse(bytes));
    EXPECT_EQ(decoded.experiment, "unit");
    EXPECT_EQ(decoded.jobs, 3u);
    ASSERT_EQ(decoded.grid.size(), 4u);
    EXPECT_EQ(decoded.grid[0].label, "baseline");
    for (std::size_t i = 0; i < request.grid.size(); ++i)
        EXPECT_EQ(configFingerprint(decoded.grid[i].config),
                  configFingerprint(request.grid[i].config));
}

TEST(ServiceProtocolTest, SubmitRejectsBadFrames)
{
    // Wrong protocol version.
    Value bad = Value::parse(
        "{\"type\":\"submit\",\"protocol\":999,\"experiment\":\"x\","
        "\"jobs\":0,\"grid\":[]}");
    EXPECT_THROW(decodeSubmit(bad), CodecError);

    // A protocol-1 frame (pre-window configs) is refused outright.
    Value v1 = Value::parse(
        "{\"type\":\"submit\",\"protocol\":1,\"experiment\":\"x\","
        "\"jobs\":0,\"grid\":[]}");
    EXPECT_THROW(decodeSubmit(v1), CodecError);

    // Empty grid.
    Value empty = Value::parse(
        "{\"type\":\"submit\",\"protocol\":2,\"experiment\":\"x\","
        "\"jobs\":0,\"grid\":[]}");
    EXPECT_THROW(decodeSubmit(empty), CodecError);

    // Frame type helpers.
    EXPECT_THROW(frameType(Value::parse("[]")), CodecError);
    EXPECT_THROW(frameType(Value::parse("{\"type\":3}")), CodecError);
    EXPECT_EQ(frameType(makeError("boom")), "error");
    EXPECT_EQ(makeError("boom").at("message").asString(), "boom");
}

TEST(ServiceProtocolTest, ResultAndDoneFramesRoundTrip)
{
    ResultEvent event;
    event.job = 9;
    event.index = 4;
    event.cached = true;
    event.workload = "nutch";
    event.label = "shotgun";
    event.fingerprint = "00ff00ff00ff00ff";
    event.result.workload = "nutch";
    event.result.scheme = "shotgun";
    event.result.ipc = 1.5;

    const ResultEvent rt =
        decodeResultEvent(Value::parse(encodeResultEvent(event)));
    EXPECT_EQ(rt.job, 9u);
    EXPECT_EQ(rt.index, 4u);
    EXPECT_TRUE(rt.cached);
    EXPECT_EQ(rt.fingerprint, "00ff00ff00ff00ff");
    EXPECT_TRUE(rt.result == event.result);

    DoneEvent done;
    done.job = 9;
    done.status = "error";
    done.completed = 4;
    done.cached = 2;
    done.message = "boom";
    const DoneEvent drt =
        decodeDone(Value::parse(encodeDone(done).dump()));
    EXPECT_EQ(drt.status, "error");
    EXPECT_EQ(drt.message, "boom");
    EXPECT_EQ(drt.completed, 4u);
}

} // namespace
} // namespace service
} // namespace shotgun
