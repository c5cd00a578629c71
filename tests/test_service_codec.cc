/**
 * @file
 * Tests for the canonical SimConfig encoding (sim/canonical.hh), the
 * strict decoders and SimResult codec (service/codec.hh) and the frame
 * field lists (service/protocol.hh): round-trip equality
 * (including trace-backed workloads and non-default CoreParams),
 * fingerprint stability, strict malformed-frame rejection, and every
 * frame's committed wire bytes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>

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
    // member to every canonical config, again when "uarch_probes"
    // joined the canonical core parameters, and in protocol 4, which
    // dropped the window's "skip_instructions" member: the bytes are
    // protocol 3's without `"skip_instructions":0,`.)
    EXPECT_EQ(configFingerprint(config), "cd5a10658ae26b57");

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

    // A window as a protocol-3 client writes it: protocol 4 retired
    // its stream skip, and the error names the member.
    {
        std::string v3 = bytes;
        const std::string key = R"("window":)";
        const auto at = v3.find(key);
        ASSERT_NE(at, std::string::npos);
        const auto start = at + key.size();
        v3.replace(start, v3.find('}', start) + 1 - start,
                   R"({"skip_instructions":0,"measure_start":0,)"
                   R"("measure_end":0})");
        try {
            decodeSimConfig(Value::parse(v3));
            ADD_FAILURE() << "decoded: " << v3;
        } catch (const CodecError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          R"(window: unknown field "skip_instructions")"),
                      std::string::npos)
                << e.what();
        }
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

    // The config with each named member's value replaced by its token.
    const auto with_fields =
        [&](std::initializer_list<std::pair<std::string, std::string>>
                edits) {
            std::string mutated = bytes;
            for (const auto &[key, token] : edits) {
                const std::string field = "\"" + key + "\":";
                const auto at = mutated.find(field);
                EXPECT_NE(at, std::string::npos) << key;
                const auto pos = at + field.size();
                mutated.replace(pos,
                                mutated.find_first_of(",}", pos) - pos,
                                token);
            }
            return Value::parse(mutated);
        };
    const auto with_field = [&](const std::string &key,
                                const std::string &token) {
        return with_fields({{key, token}});
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
        // A program image over the admission cap (931 MiB reserved,
        // about 195 MB kept for the life of a daemon).
        {"num_funcs", "500000"},
    };
    for (const auto &[key, token] : unrunnable)
        EXPECT_THROW(decodeSimConfig(with_field(key, token)), CodecError)
            << key << " = " << token;
    // A function with no basic blocks, on which a call lands in the
    // next function: a large function draws max_bbs_per_func to
    // large_func_bbs blocks, none when both are 0.
    EXPECT_THROW(decodeSimConfig(with_fields(
                     {{"max_bbs_per_func", "0"}, {"large_func_bbs", "0"}})),
                 CodecError);

    // The size cap's error names the field a client can shrink.
    try {
        decodeSimConfig(with_field("num_funcs", "500000"));
    } catch (const CodecError &e) {
        EXPECT_NE(std::string(e.what()).find("num_funcs"),
                  std::string::npos)
            << e.what();
    }
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

    const Value frame = Value::parse(encodeFrame(request));
    EXPECT_EQ(frameType(frame), "submit");
    const std::string bytes = frame.dump();
    EXPECT_EQ(Value::parse(bytes).dump(), bytes);
    const auto decoded = decodeFrame<SubmitRequest>(Value::parse(bytes));
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
    EXPECT_THROW(decodeFrame<SubmitRequest>(bad), CodecError);

    // A protocol-1 frame (pre-window configs) is refused outright.
    Value v1 = Value::parse(
        "{\"type\":\"submit\",\"protocol\":1,\"experiment\":\"x\","
        "\"jobs\":0,\"grid\":[]}");
    EXPECT_THROW(decodeFrame<SubmitRequest>(v1), CodecError);

    // Empty grid.
    Value empty = Value::parse(
        "{\"type\":\"submit\",\"protocol\":4,\"experiment\":\"x\","
        "\"jobs\":0,\"grid\":[]}");
    EXPECT_THROW(decodeFrame<SubmitRequest>(empty), CodecError);

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

    const auto rt =
        decodeFrame<ResultEvent>(Value::parse(encodeFrame(event)));
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
    const auto drt = decodeFrame<DoneEvent>(Value::parse(encodeFrame(done)));
    EXPECT_EQ(drt.status, "error");
    EXPECT_EQ(drt.message, "boom");
    EXPECT_EQ(drt.completed, 4u);
}


// ------------------------------------------------- golden frame bytes

// The frame codec under test: encodeFrame() and decodeFrame() for
// the frames, encodeTree() and decodeAs() for the status rows.
template <typename F>
std::string
encode(const F &frame)
{
    return encodeFrame(frame);
}

std::string
encode(const JobStatus &row)
{
    return encodeTree(row).dump();
}

std::string
encode(const WorkerStatus &row)
{
    return encodeTree(row).dump();
}

template <typename F>
F
decode(const std::string &line)
{
    return decodeFrame<F>(Value::parse(line));
}

template <>
JobStatus
decode(const std::string &line)
{
    return decodeAs<JobStatus>(Value::parse(line), "job");
}

template <>
WorkerStatus
decode(const std::string &line)
{
    return decodeAs<WorkerStatus>(Value::parse(line), "worker");
}

// Frame instances pinned by the golden-bytes test: one with every
// optional member present, one minimal.
runner::Experiment
goldenPoint()
{
    runner::Experiment exp;
    exp.workload = "nutch";
    exp.label = "shotgun";
    exp.config = SimConfig::make(makePreset(WorkloadId::Nutch),
                                 SchemeType::Shotgun);
    return exp;
}

obs::SpanRecord
goldenSpan()
{
    obs::SpanRecord span;
    span.traceId = 7;
    span.id = 11;
    span.parent = 9;
    span.name = "measure";
    span.category = "sim";
    span.process = "serve:w1";
    span.lane = "slot-0";
    span.startUs = 1700000000000000;
    span.durUs = 1234;
    return span;
}

SubmitRequest
fullSubmit()
{
    SubmitRequest r;
    r.experiment = "fig7";
    r.jobs = 2;
    r.priority = 3;
    r.grid.push_back(goldenPoint());
    r.traceId = 7;
    r.parentSpan = 9;
    return r;
}

SubmitRequest
minimalSubmit()
{
    SubmitRequest r;
    r.grid.push_back(goldenPoint());
    return r;
}

ResultEvent
fullResult()
{
    ResultEvent e;
    e.job = 5;
    e.index = 1;
    e.cached = true;
    e.workload = "nutch";
    e.label = "shotgun";
    e.fingerprint = "00ff00ff00ff00ff";
    e.result.workload = "nutch";
    e.result.scheme = "shotgun";
    e.result.instructions = 1000;
    e.result.ipc = 1.5;
    e.spans.push_back(goldenSpan());
    e.hasTiming = true;
    e.timing.decodeUs = 1;
    e.timing.warmupUs = 2;
    e.timing.restoreUs = 3;
    e.timing.measureUs = 4;
    return e;
}

DoneEvent
fullDone()
{
    DoneEvent d;
    d.job = 5;
    d.status = "error";
    d.completed = 1;
    d.cached = 1;
    d.message = "boom";
    return d;
}

JobStatus
fullJob()
{
    JobStatus s;
    s.id = 5;
    s.experiment = "fig7";
    s.state = "running";
    s.total = 4;
    s.completed = 2;
    s.cached = 1;
    s.budget = 3;
    return s;
}

RegisterRequest
fullRegister()
{
    RegisterRequest r;
    r.name = "w1";
    r.slots = 2;
    return r;
}

WorkItem
fullWork()
{
    WorkItem w;
    w.task = 3;
    w.experiment = goldenPoint();
    w.traceId = 7;
    w.parentSpan = 9;
    return w;
}

WorkItem
minimalWork()
{
    WorkItem w;
    w.experiment = goldenPoint();
    return w;
}

WorkResult
fullWorkResult()
{
    WorkResult r;
    r.task = 3;
    r.cached = true;
    r.result.workload = "nutch";
    r.result.ipc = 0.75;
    r.spans.push_back(goldenSpan());
    r.hasTiming = true;
    r.timing.measureUs = 8;
    return r;
}

WorkResult
failedWorkResult()
{
    WorkResult r;
    r.task = 3;
    r.ok = false;
    r.message = "boom";
    return r;
}

HeartbeatFrame
fullHeartbeat()
{
    HeartbeatFrame h;
    h.worker = 2;
    h.cache = {3, 4, 1};
    h.checkpoint = {5, 2};
    h.phase = {10, 20, 30, 40, 6};
    h.percentiles = {100, 200, 300};
    return h;
}

WorkerStatus
fullWorker()
{
    WorkerStatus s;
    s.id = 2;
    s.name = "w1";
    s.slots = 2;
    s.inflight = 1;
    s.completed = 6;
    s.alive = false;
    s.heartbeatAgeMs = 150;
    s.throughput = 2.5;
    s.cache = {3, 4, 1};
    s.checkpoint = {5, 2};
    s.phase = {10, 20, 30, 40, 6};
    s.percentiles = {100, 200, 300};
    return s;
}

/** Every golden grid point's config, pinned by its fingerprint. */
std::string
goldenConfig()
{
    const SimConfig config = goldenPoint().config;
    EXPECT_EQ(configFingerprint(config), "cd5a10658ae26b57");
    return canonicalText(config);
}

// Literal pieces several golden frames share.
const std::string kStalls =
    R"({"icache":0,"btb_resolve":0,"misfetch":0,"mispredict":0,)"
    R"("other":0})";
const std::string kResultTail =
    R"(,"fe_stall_cycles":0,"prefetch_accuracy":0,)"
    R"("avg_l1d_fill_cycles":0,"prefetches_issued":0,"storage_bits":0})";
const std::string kSpan =
    R"({"trace":7,"id":11,"parent":9,"name":"measure","cat":"sim",)"
    R"("proc":"serve:w1","lane":"slot-0","ts":1700000000000000,)"
    R"("dur":1234})";

std::string
emptyResult(const std::string &head)
{
    return head + R"("instructions":0,"cycles":0,"ipc":0,"btb_mpki":0,)"
                  R"("l1i_mpki":0,"mispredicts_per_ki":0,"stalls":)" +
           kStalls + kResultTail;
}

/** encode(frame) is `bytes`, and so is the re-encoded decode of them. */
template <typename F>
void
expectGolden(const F &frame, const std::string &bytes)
{
    EXPECT_EQ(encode(frame), bytes);
    EXPECT_EQ(encode(decode<F>(bytes)), bytes);
}

TEST(FrameGoldenTest, EveryFrameEncodesToItsCommittedBytes)
{
    const std::string point =
        R"({"workload":"nutch","label":"shotgun","config":)" +
        goldenConfig() + "}";
    expectGolden(fullSubmit(),
                 R"({"type":"submit","protocol":4,"experiment":"fig7",)"
                 R"("jobs":2,"priority":3,"grid":[)" +
                     point + R"(],"trace":{"id":7,"parent":9}})");
    expectGolden(minimalSubmit(),
                 R"({"type":"submit","protocol":4,"experiment":"",)"
                 R"("jobs":0,"priority":1,"grid":[)" +
                     point + "]}");

    expectGolden(
        fullResult(),
        R"({"type":"result","job":5,"index":1,"cached":true,)"
        R"("workload":"nutch","label":"shotgun",)"
        R"("fingerprint":"00ff00ff00ff00ff","result":{"workload":"nutch",)"
        R"("scheme":"shotgun","instructions":1000,"cycles":0,"ipc":1.5,)"
        R"("btb_mpki":0,"l1i_mpki":0,"mispredicts_per_ki":0,"stalls":)" +
            kStalls + kResultTail + R"(,"spans":[)" + kSpan +
            R"(],"timing":{"decode_us":1,"warmup_us":2,"restore_us":3,)"
            R"("measure_us":4}})");
    expectGolden(ResultEvent{},
                 R"({"type":"result","job":0,"index":0,"cached":false,)"
                 R"("workload":"","label":"","fingerprint":"",)" +
                     emptyResult(R"("result":{"workload":"","scheme":"",)") +
                     "}");

    expectGolden(fullDone(),
                 R"({"type":"done","job":5,"status":"error",)"
                 R"("completed":1,"cached":1,"message":"boom"})");
    expectGolden(DoneEvent{}, R"({"type":"done","job":0,"status":"",)"
                              R"("completed":0,"cached":0})");

    expectGolden(fullJob(),
                 R"({"id":5,"experiment":"fig7","state":"running",)"
                 R"("total":4,"completed":2,"cached":1,"budget":3})");
    expectGolden(JobStatus{},
                 R"({"id":0,"experiment":"","state":"","total":0,)"
                 R"("completed":0,"cached":0,"budget":0})");

    expectGolden(fullRegister(), R"({"type":"register","protocol":4,)"
                                 R"("name":"w1","slots":2})");
    expectGolden(RegisterRequest{}, R"({"type":"register","protocol":4,)"
                                    R"("name":"","slots":1})");

    expectGolden(
        fullHeartbeat(),
        R"({"type":"heartbeat","worker":2,)"
        R"("cache":{"hits":3,"misses":4,"backend_hits":1},)"
        R"("checkpoint":{"hits":5,"misses":2},"phase":{"decode_us":10,)"
        R"("warmup_us":20,"restore_us":30,"measure_us":40,"points":6},)"
        R"("percentiles":{"measure_p50_us":100,"measure_p95_us":200,)"
        R"("measure_p99_us":300}})");
    expectGolden(
        HeartbeatFrame{},
        R"({"type":"heartbeat","worker":0,)"
        R"("cache":{"hits":0,"misses":0,"backend_hits":0},)"
        R"("checkpoint":{"hits":0,"misses":0},"phase":{"decode_us":0,)"
        R"("warmup_us":0,"restore_us":0,"measure_us":0,"points":0}})");

    expectGolden(fullWork(), R"({"type":"work","task":3,"experiment":)" +
                                 point +
                                 R"(,"trace":{"id":7,"parent":9}})");
    expectGolden(minimalWork(),
                 R"({"type":"work","task":0,"experiment":)" + point + "}");

    expectGolden(
        fullWorkResult(),
        R"({"type":"result","task":3,"ok":true,"cached":true,)"
        R"("result":{"workload":"nutch",)"
        R"("scheme":"","instructions":0,"cycles":0,"ipc":0.75,)"
        R"("btb_mpki":0,"l1i_mpki":0,"mispredicts_per_ki":0,"stalls":)" +
            kStalls + kResultTail + R"(,"spans":[)" + kSpan +
            R"(],"timing":{"decode_us":0,"warmup_us":0,"restore_us":0,)"
            R"("measure_us":8}})");
    expectGolden(WorkResult{},
                 R"({"type":"result","task":0,"ok":true,"cached":false,)" +
                     emptyResult(R"("result":{"workload":"","scheme":"",)") +
                     "}");
    expectGolden(failedWorkResult(), R"({"type":"result","task":3,)"
                                     R"("ok":false,"message":"boom"})");

    expectGolden(
        fullWorker(),
        R"({"id":2,"name":"w1","slots":2,"inflight":1,"completed":6,)"
        R"("alive":false,"heartbeat_age_ms":150,"throughput":2.5,)"
        R"("cache_hits":3,"cache_misses":4,"backend_hits":1,)"
        R"("checkpoint_hits":5,"checkpoint_misses":2,)"
        R"("phase":{"decode_us":10,"warmup_us":20,"restore_us":30,)"
        R"("measure_us":40,"points":6},"percentiles":{)"
        R"("measure_p50_us":100,"measure_p95_us":200,)"
        R"("measure_p99_us":300}})");
    expectGolden(
        WorkerStatus{},
        R"({"id":0,"name":"","slots":0,"inflight":0,"completed":0,)"
        R"("alive":true,"heartbeat_age_ms":0,"throughput":0,)"
        R"("cache_hits":0,"cache_misses":0,"backend_hits":0,)"
        R"("checkpoint_hits":0,"checkpoint_misses":0,)"
        R"("phase":{"decode_us":0,"warmup_us":0,"restore_us":0,)"
        R"("measure_us":0,"points":0}})");
}

/** `bytes` from an older peer decode to what `expected` encodes. */
template <typename F>
void
expectDefaults(const std::string &bytes, const std::string &expected)
{
    EXPECT_EQ(encode(decode<F>(bytes)), expected);
}

TEST(FrameGoldenTest, OlderPeersDecodeToDefaults)
{
    const std::string cache =
        R"("cache":{"hits":3,"misses":4,"backend_hits":1})";
    expectDefaults<HeartbeatFrame>(
        R"({"type":"heartbeat","worker":2,)" + cache + "}",
        R"({"type":"heartbeat","worker":2,)" + cache +
            R"(,"checkpoint":{"hits":0,"misses":0},"phase":{)"
            R"("decode_us":0,"warmup_us":0,"restore_us":0,)"
            R"("measure_us":0,"points":0}})");

    const std::string row =
        R"({"id":2,"name":"w1","slots":2,"inflight":1,"completed":6,)"
        R"("alive":false,"heartbeat_age_ms":150,"throughput":2.5,)"
        R"("cache_hits":3,"cache_misses":4,"backend_hits":1)";
    expectDefaults<WorkerStatus>(
        row + "}", row + R"(,"checkpoint_hits":0,"checkpoint_misses":0,)"
                         R"("phase":{"decode_us":0,"warmup_us":0,)"
                         R"("restore_us":0,"measure_us":0,"points":0}})");

    const std::string point =
        R"({"workload":"nutch","label":"shotgun","config":)" +
        goldenConfig() + "}";
    expectDefaults<SubmitRequest>(
        R"({"type":"submit","protocol":4,"experiment":"","jobs":0,)"
        R"("grid":[)" + point + "]}",
        encode(minimalSubmit()));

    expectDefaults<JobStatus>(
        R"({"id":5,"experiment":"fig7","state":"running","total":4,)"
        R"("completed":2,"cached":1})",
        R"({"id":5,"experiment":"fig7","state":"running","total":4,)"
        R"("completed":2,"cached":1,"budget":0})");

    ResultEvent bare = fullResult();
    bare.spans.clear();
    bare.hasTiming = false;
    expectDefaults<ResultEvent>(encode(bare), encode(bare));
    const ResultEvent decoded = decode<ResultEvent>(encode(bare));
    EXPECT_TRUE(decoded.spans.empty());
    EXPECT_FALSE(decoded.hasTiming);
}

/** decode<F>(bytes) throws a CodecError whose text holds `what`. */
template <typename F>
void
expectRejected(const std::string &bytes, const std::string &what)
{
    try {
        decode<F>(bytes);
        ADD_FAILURE() << "decoded: " << bytes;
    } catch (const CodecError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << "not a CodecError: " << e.what();
    }
}

/** `bytes` with one more member, "zz", at the end of its object. */
std::string
withUnknown(std::string bytes)
{
    bytes.insert(bytes.size() - 1, R"(,"zz":1)");
    return bytes;
}

TEST(FrameGoldenTest, FramesDecodeStrictly)
{
    const std::string unknown = R"(unknown field "zz")";
    expectRejected<SubmitRequest>(withUnknown(encode(fullSubmit())),
                                  "submit: " + unknown);
    expectRejected<ResultEvent>(withUnknown(encode(fullResult())),
                                "result: " + unknown);
    expectRejected<DoneEvent>(withUnknown(encode(fullDone())),
                              "done: " + unknown);
    expectRejected<JobStatus>(withUnknown(encode(fullJob())), unknown);
    expectRejected<RegisterRequest>(withUnknown(encode(fullRegister())),
                                    "register: " + unknown);
    expectRejected<HeartbeatFrame>(withUnknown(encode(fullHeartbeat())),
                                   "heartbeat: " + unknown);
    expectRejected<WorkItem>(withUnknown(encode(fullWork())),
                             "work: " + unknown);
    expectRejected<WorkResult>(withUnknown(encode(fullWorkResult())),
                               "result: " + unknown);
    expectRejected<WorkerStatus>(withUnknown(encode(fullWorker())),
                                 unknown);

    // Inside a member's object, the error names the member's path.
    std::string heartbeat = encode(fullHeartbeat());
    heartbeat.insert(heartbeat.find(R"(,"points")"), R"(,"zz":1)");
    expectRejected<HeartbeatFrame>(heartbeat, "heartbeat.phase: " + unknown);

    // A required member is required.
    std::string submit = encode(fullSubmit());
    submit.erase(submit.find(R"("jobs":2,)"), 9);
    expectRejected<SubmitRequest>(submit, R"(missing field "jobs")");

    // A failed result carries its message and nothing else; a
    // successful one carries its result.
    expectRejected<WorkResult>(
        R"({"type":"result","task":3,"ok":false,"message":"boom",)"
        R"("result":{}})",
        R"(unknown field "result")");
    expectRejected<WorkResult>(
        R"({"type":"result","task":3,"ok":false})",
        R"(missing field "message")");
    expectRejected<WorkResult>(
        R"({"type":"result","task":3,"ok":true,"message":"boom"})",
        R"(missing field "cached")");

    // The frames' rules, and the version check before anything else.
    expectRejected<SubmitRequest>(
        R"({"type":"submit","protocol":4,"experiment":"","jobs":0,)"
        R"("grid":[]})",
        "submit: empty grid");
    expectRejected<RegisterRequest>(
        R"({"type":"register","protocol":4,"name":"w1","slots":0})",
        R"(register: "slots" must be >= 1)");
    expectRejected<RegisterRequest>(
        R"({"type":"register","protocol":3,"zz":1})",
        "unsupported protocol version 3 (this build: 4)");
}

} // namespace
} // namespace service
} // namespace shotgun
