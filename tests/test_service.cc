/**
 * @file
 * End-to-end tests for the simulation service: a real SimServer on a
 * Unix socket in this process, driven through ServiceClient. The
 * load-bearing assertions are the determinism ones: a grid submitted
 * to a server returns results bitwise-identical to the same grid run
 * in-process, and the serialized JSON/CSV artifacts match byte for
 * byte. The rules of the daemon shell both daemons share (frames,
 * clients that leave, shutdown) run against a fleet coordinator too.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "fleet/coordinator.hh"
#include "fleet/worker.hh"
#include "runner/experiment.hh"
#include "runner/result_sink.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace service
{
namespace
{

/** Small but non-trivial synthetic workload: fast to simulate. */
WorkloadPreset
tinyPreset(const std::string &name, std::uint64_t seed)
{
    WorkloadPreset preset;
    preset.name = name;
    preset.program.name = name;
    preset.program.numFuncs = 150;
    preset.program.numOsFuncs = 30;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;
    preset.program.seed = seed;
    return preset;
}

runner::ExperimentSet
quickGrid(int workloads = 2, std::uint64_t seed = 0x5e40)
{
    const std::uint64_t warmup = 20000, measure = 50000;
    runner::ExperimentSet set;
    for (int w = 0; w < workloads; ++w) {
        const WorkloadPreset preset =
            tinyPreset("svc-w" + std::to_string(w),
                       seed + static_cast<std::uint64_t>(w));
        set.addBaseline(preset, warmup, measure);
        for (SchemeType type :
             {SchemeType::Boomerang, SchemeType::Shotgun}) {
            SimConfig config = SimConfig::make(preset, type);
            config.warmupInstructions = warmup;
            config.measureInstructions = measure;
            set.add(preset, schemeTypeName(type), config);
        }
    }
    return set;
}

SubmitRequest
requestFor(const runner::ExperimentSet &set, const std::string &name)
{
    SubmitRequest request;
    request.experiment = name;
    request.jobs = 2;
    request.grid = set.experiments();
    return request;
}

/** A serve()ing daemon on a fresh Unix socket, RAII-stopped. */
template <class Daemon, class Options = ServerOptions>
class TestDaemon
{
  public:
    explicit TestDaemon(const std::string &tag, Options options = {})
        : server_("unix:/tmp/shotgun_svc_test_" + tag + ".sock",
                  options),
          thread_([this]() { server_.serve(); })
    {
    }

    ~TestDaemon()
    {
        server_.requestShutdown();
        thread_.join();
    }

    std::string endpoint() const { return server_.endpoint(); }
    Daemon &server() { return server_; }

  private:
    Daemon server_;
    std::thread thread_;
};

using TestServer = TestDaemon<SimServer>;
using TestCoordinator =
    TestDaemon<fleet::FleetCoordinator, fleet::CoordinatorOptions>;

/** A coordinator plus one FleetWorker computing on its own server. */
class TestFleet
{
  public:
    explicit TestFleet(const std::string &tag)
        : coordinator_(tag), workerServer_(tag + "-w"),
          worker_(workerServer_.server(), workerOptions())
    {
        worker_.start();
    }

    std::string endpoint() const { return coordinator_.endpoint(); }
    fleet::FleetCoordinator &coordinator()
    {
        return coordinator_.server();
    }

  private:
    fleet::WorkerOptions workerOptions() const
    {
        fleet::WorkerOptions options;
        options.coordinator = coordinator_.endpoint();
        options.heartbeatMs = 100;
        return options;
    }

    TestCoordinator coordinator_;
    TestServer workerServer_;
    fleet::FleetWorker worker_;
};

/**
 * Send one submit line and collect its replies: through `done`, or a
 * lone `error`.
 */
std::vector<std::string>
submitLine(LineChannel &channel, const std::string &line)
{
    std::vector<std::string> frames;
    if (!channel.sendLine(line))
        return frames;
    std::string reply;
    while (channel.recvLine(reply)) {
        frames.push_back(reply);
        const std::string type = frameType(json::Value::parse(reply));
        if (type == "done" || type == "error")
            break;
    }
    return frames;
}

/** `object` with member `key` replaced by `value`, order kept. */
json::Value
withMember(const json::Value &object, const std::string &key,
           const json::Value &value)
{
    json::Value out = json::Value::object();
    for (const auto &member : object.members())
        out.set(member.first,
                member.first == key ? value : member.second);
    return out;
}

/**
 * A reply frame without the members a resubmit may change: the job
 * id and whether points came from the result cache.
 */
std::string
withoutJobAndCached(const std::string &line)
{
    const json::Value frame = json::Value::parse(line);
    json::Value out = json::Value::object();
    for (const auto &member : frame.members()) {
        if (member.first != "job" && member.first != "cached")
            out.set(member.first, member.second);
    }
    return out.dump();
}

TEST(ServiceTest, SubmitMatchesInProcessBitwise)
{
    runner::ExperimentSet set = quickGrid();
    // A windowed config a client builds by hand is an ordinary grid
    // point: the server returns that window's own result.
    SimConfig windowed = set.experiments().back().config;
    windowed.window.measureStart = 10000;
    windowed.window.measureEnd = 30000;
    const std::size_t window_index =
        set.add(windowed.workload, "shotgun#window", windowed);
    const auto local = runner::ExperimentRunner().run(set);

    TestServer server("submit");
    ServiceClient client(server.endpoint());
    EXPECT_TRUE(client.ping());

    std::vector<ResultEvent> events;
    const auto remote = client.submit(
        requestFor(set, "unit"),
        [&](const ResultEvent &event) { events.push_back(event); });

    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
    EXPECT_TRUE(remote[window_index] == runSimulation(windowed));

    // Streamed events arrive in grid order with matching labels.
    ASSERT_EQ(events.size(), set.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].index, i);
        EXPECT_EQ(events[i].label, set.experiments()[i].label);
        EXPECT_FALSE(events[i].cached);
    }

    // On the wire, every result frame (the window's included) carries
    // its result and no raw counters; resubmitted, the grid is
    // answered from the cache through the same frames.
    LineChannel channel(connectTo(Endpoint::parse(server.endpoint())));
    ASSERT_TRUE(channel.socket().setRecvTimeout(60000));
    const std::vector<std::string> frames =
        submitLine(channel, encodeFrame(requestFor(set, "unit")));
    ASSERT_EQ(frames.size(), set.size() + 2); // accepted ... done
    EXPECT_EQ(frameType(json::Value::parse(frames.back())), "done");
    for (const std::string &frame : frames)
        EXPECT_EQ(frame.find("\"delta\""), std::string::npos) << frame;

    // The serialized artifacts are byte-identical too.
    runner::ResultSink local_sink("unit");
    runner::appendResultRows(set, local, local_sink);
    runner::ResultSink remote_sink("unit");
    runner::appendResultRows(set, remote, remote_sink);
    std::ostringstream local_json, remote_json, local_csv, remote_csv;
    local_sink.writeJson(local_json);
    remote_sink.writeJson(remote_json);
    local_sink.writeCsv(local_csv);
    remote_sink.writeCsv(remote_csv);
    EXPECT_EQ(local_json.str(), remote_json.str());
    EXPECT_EQ(local_csv.str(), remote_csv.str());
}

TEST(ServiceTest, ResubmitIsServedFromTheCache)
{
    const runner::ExperimentSet set = quickGrid(1);

    TestServer server("cache");
    ServiceClient client(server.endpoint());

    const auto first = client.submit(requestFor(set, "cache"));
    EXPECT_EQ(server.server().cacheSize(), set.size());

    std::size_t cached = 0;
    const auto second = client.submit(
        requestFor(set, "cache"),
        [&](const ResultEvent &event) { cached += event.cached; });
    EXPECT_EQ(cached, set.size());
    EXPECT_EQ(server.server().cacheSize(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(first[i] == second[i]);
}

TEST(ServiceTest, ViaBaselineCacheMemberCannotAliasResults)
{
    // Regression: the grid entries' "via_baseline_cache" member once
    // routed any config through a baseline memo keyed without scheme
    // or core, so this shotgun point came back as the workload's
    // baseline and was cached under the shotgun fingerprint. Frames
    // decode strictly now: an old client's frame with the member is
    // an error reply, and it can change no result.
    const WorkloadPreset preset = tinyPreset("svc-alias", 0xa11a5);
    runner::Experiment exp;
    exp.workload = preset.name;
    exp.label = "shotgun";
    exp.config = SimConfig::make(preset, SchemeType::Shotgun);
    exp.config.core.fetchWidth = 8;
    exp.config.warmupInstructions = 20000;
    exp.config.measureInstructions = 50000;
    const SimResult expected = runSimulation(exp.config);
    ASSERT_EQ(expected.scheme, "shotgun");

    SubmitRequest request;
    request.experiment = "alias";
    request.grid.push_back(exp);

    // The old client's frame: the clean submit, with the member set
    // on its one grid entry.
    json::Value entry = json::Value::object();
    entry.set("workload", json::Value::string(exp.workload));
    entry.set("label", json::Value::string(exp.label));
    entry.set("via_baseline_cache", json::Value::boolean(true));
    entry.set("config", encodeSimConfig(exp.config));
    json::Value grid = json::Value::array();
    grid.push(std::move(entry));
    const json::Value clean_frame =
        json::Value::parse(encodeFrame(request));
    json::Value frame = json::Value::object();
    for (const auto &member : clean_frame.members())
        frame.set(member.first,
                  member.first == "grid" ? grid : member.second);

    TestServer server("alias");
    LineChannel channel(connectTo(Endpoint::parse(server.endpoint())));
    ASSERT_TRUE(channel.socket().setRecvTimeout(60000));
    ASSERT_TRUE(channel.sendLine(frame.dump()));
    std::string line;
    ASSERT_TRUE(channel.recvLine(line));
    const json::Value reply = json::Value::parse(line);
    ASSERT_EQ(frameType(reply), "error") << line;
    EXPECT_NE(reply.at("message").asString().find(
                  R"(submit.grid: unknown field "via_baseline_cache")"),
              std::string::npos)
        << line;

    // The clean submit computes the true shotgun result; its resubmit
    // is a cache hit of it.
    ServiceClient client(server.endpoint());
    for (std::size_t expected_cached : {0u, 1u}) {
        std::size_t cached = 0;
        const auto clean = client.submit(
            request,
            [&](const ResultEvent &event) { cached += event.cached; });
        ASSERT_EQ(clean.size(), 1u);
        EXPECT_EQ(cached, expected_cached);
        EXPECT_EQ(clean[0].scheme, "shotgun");
        EXPECT_TRUE(clean[0] == expected);
    }
}

TEST(ServiceTest, StatusReportsJobsAndCache)
{
    const runner::ExperimentSet set = quickGrid(1);

    TestServer server("status");
    ServiceClient client(server.endpoint());
    client.submit(requestFor(set, "status-job"));

    const json::Value status = client.status();
    EXPECT_EQ(status.at("server").at("protocol").asU64(),
              kProtocolVersion);
    EXPECT_EQ(status.at("server").at("cache_entries").asU64(),
              set.size());
    ASSERT_EQ(status.at("jobs").size(), 1u);
    const auto job =
        decodeAs<JobStatus>(status.at("jobs").items()[0], "job");
    EXPECT_EQ(job.experiment, "status-job");
    EXPECT_EQ(job.state, "ok");
    EXPECT_EQ(job.total, set.size());
    EXPECT_EQ(job.completed, set.size());
}

TEST(ServiceTest, MalformedFramesAreRejectedNotFatal)
{
    TestServer server("malformed");
    TestCoordinator coordinator("malformed-coord");
    for (const std::string &endpoint :
         {server.endpoint(), coordinator.endpoint()}) {
        SCOPED_TRACE(endpoint);
        LineChannel channel(connectTo(Endpoint::parse(endpoint)));
        ASSERT_TRUE(channel.socket().setRecvTimeout(60000));

        // Garbage, valid-JSON-wrong-shape, unknown type: all answered
        // with an error frame on a connection that stays usable --
        // from the very first frame on.
        for (const char *line :
             {"this is not json", "[1,2,3]", "{\"no_type\":1}",
              "{\"type\":\"warp\"}",
              "{\"type\":\"submit\",\"protocol\":1}"}) {
            ASSERT_TRUE(channel.sendLine(line));
            std::string reply;
            ASSERT_TRUE(channel.recvLine(reply)) << line;
            EXPECT_EQ(frameType(json::Value::parse(reply)), "error")
                << line;
        }

        ASSERT_TRUE(channel.sendLine("{\"type\":\"ping\"}"));
        std::string reply;
        ASSERT_TRUE(channel.recvLine(reply));
        EXPECT_EQ(frameType(json::Value::parse(reply)), "pong");
    }
}

TEST(ServiceTest, ResubmittedFrameIsDecodedOnce)
{
    // The daemon shell memoizes a decoded submit by its frame bytes.
    // The same line sent again is answered like the first, every
    // point now from the result cache, and counts one memo hit.
    TestServer server("memo");
    TestFleet fleet("memo-coord");
    const std::vector<
        std::pair<std::string, std::function<MemoCacheStats()>>>
        daemons = {
            {server.endpoint(),
             [&]() { return server.server().submitMemoStats(); }},
            {fleet.endpoint(),
             [&]() { return fleet.coordinator().submitMemoStats(); }},
        };
    const runner::ExperimentSet set = quickGrid(1, 0x3e30);
    const std::string line = encodeFrame(requestFor(set, "memo"));
    for (const auto &daemon : daemons) {
        SCOPED_TRACE(daemon.first);
        LineChannel channel(connectTo(Endpoint::parse(daemon.first)));
        ASSERT_TRUE(channel.socket().setRecvTimeout(60000));
        const std::vector<std::string> first = submitLine(channel, line);
        const std::vector<std::string> second =
            submitLine(channel, line);

        // accepted, one result per point, done.
        ASSERT_EQ(first.size(), set.size() + 2);
        ASSERT_EQ(second.size(), first.size());
        for (std::size_t i = 0; i < first.size(); ++i)
            EXPECT_EQ(withoutJobAndCached(first[i]),
                      withoutJobAndCached(second[i]))
                << "frame " << i;
        for (std::size_t i = 1; i <= set.size(); ++i)
            EXPECT_TRUE(
                decodeFrame<ResultEvent>(json::Value::parse(second[i])).cached)
                << "point " << i - 1;
        const DoneEvent done =
            decodeFrame<DoneEvent>(json::Value::parse(second.back()));
        EXPECT_EQ(done.status, "ok");
        EXPECT_EQ(done.cached, set.size());

        const MemoCacheStats memo = daemon.second();
        EXPECT_EQ(memo.entries, 1u);
        EXPECT_EQ(memo.hits, 1u);
        EXPECT_EQ(memo.misses, 1u);
        const json::Value status = ServiceClient(daemon.first).status();
        EXPECT_EQ(
            status.at("server").at("submit_memo").at("hits").asU64(),
            1u);
        EXPECT_EQ(status.at("server").at("cache").at("entries").asU64(),
                  set.size());
    }
}

TEST(ServiceTest, RejectedSubmitsAreNeverMemoized)
{
    // A submit that fails to decode, or whose config breaks a rule
    // the simulator needs, gets the same error each time it is sent
    // and never enters the memo.
    const WorkloadPreset preset = tinyPreset("svc-unrunnable", 0xbad);
    SimConfig config = SimConfig::make(preset, SchemeType::Confluence);
    config.warmupInstructions = 20000;
    config.measureInstructions = 50000;
    config.scheme.confluence.indexWays = 0;
    runner::ExperimentSet unrunnable;
    unrunnable.add(preset, "confluence", config);
    const std::vector<std::string> lines = {
        R"({"type":"submit","protocol":3,"experiment":"x"})",
        encodeFrame(requestFor(unrunnable, "unrunnable")),
    };

    TestServer server("memo-reject");
    TestCoordinator coordinator("memo-reject-coord");
    const std::vector<
        std::pair<std::string, std::function<MemoCacheStats()>>>
        daemons = {
            {server.endpoint(),
             [&]() { return server.server().submitMemoStats(); }},
            {coordinator.endpoint(),
             [&]() { return coordinator.server().submitMemoStats(); }},
        };
    for (const auto &daemon : daemons) {
        SCOPED_TRACE(daemon.first);
        LineChannel channel(connectTo(Endpoint::parse(daemon.first)));
        ASSERT_TRUE(channel.socket().setRecvTimeout(60000));
        for (const std::string &line : lines) {
            const std::vector<std::string> first =
                submitLine(channel, line);
            ASSERT_EQ(first.size(), 1u) << line;
            EXPECT_EQ(frameType(json::Value::parse(first[0])), "error");
            EXPECT_EQ(submitLine(channel, line), first);
        }
        const MemoCacheStats memo = daemon.second();
        EXPECT_EQ(memo.entries, 0u);
        EXPECT_EQ(memo.hits, 0u);
        EXPECT_EQ(memo.misses, 2 * lines.size());
    }
}

TEST(ServiceTest, MemoizedSubmitStillValidatesItsTraceFile)
{
    // Checks of filesystem state run on every submit: a memoized
    // frame whose trace file was truncated since is rejected. A frame
    // naming its workload by a `trace:` spec reads that file while it
    // decodes, so it is never memoized at all.
    const WorkloadPreset preset = tinyPreset("svc-memo-trace", 3);
    const std::string trace = "/tmp/shotgun_svc_memo.trace";
    {
        Program prog(preset.program);
        TraceGenerator gen(prog, 1);
        recordTrace(gen, preset, 1, trace, 5000);
    }
    runner::Experiment exp;
    exp.workload = preset.name;
    exp.label = "baseline";
    exp.config = SimConfig::make(preset, SchemeType::Baseline);
    exp.config.workload.tracePath = trace;
    exp.config.warmupInstructions = 1000;
    exp.config.measureInstructions = 2000;
    SubmitRequest request;
    request.experiment = "memo-trace";
    request.grid.push_back(exp);
    const std::string line = encodeFrame(request);

    const json::Value frame = json::Value::parse(line);
    const json::Value &point = frame.at("grid").items()[0];
    json::Value grid = json::Value::array();
    grid.push(withMember(
        point, "config",
        withMember(point.at("config"), "workload",
                   json::Value::string("trace:" + trace))));
    const std::string by_spec = withMember(frame, "grid", grid).dump();

    TestServer server("memo-trace");
    LineChannel channel(connectTo(Endpoint::parse(server.endpoint())));
    ASSERT_TRUE(channel.socket().setRecvTimeout(60000));
    for (const std::string &sent : {line, by_spec, by_spec}) {
        const std::vector<std::string> replies =
            submitLine(channel, sent);
        ASSERT_FALSE(replies.empty());
        EXPECT_EQ(
            decodeFrame<DoneEvent>(json::Value::parse(replies.back()))
                .status,
            "ok")
            << replies.back();
    }
    EXPECT_EQ(server.server().submitMemoStats().entries, 1u);
    EXPECT_EQ(server.server().submitMemoStats().hits, 0u);

    std::filesystem::resize_file(
        trace, std::filesystem::file_size(trace) / 2);
    const std::vector<std::string> replies = submitLine(channel, line);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(frameType(json::Value::parse(replies[0])), "error");
    EXPECT_NE(replies[0].find("trace"), std::string::npos)
        << replies[0];
    EXPECT_EQ(server.server().submitMemoStats().hits, 1u);
    std::remove(trace.c_str());
}

/**
 * Record `preset` to `path`, then flip record 100's branch-type byte
 * to 238 on disk (19-byte records, the type at byte 17). Returns the
 * good bytes. The header and the file size stay intact, so only the
 * decode can find the damage.
 */
std::string
recordCorruptTrace(const WorkloadPreset &preset, const std::string &path)
{
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    recordTraceInstructions(gen, preset, 1, path, 100000);
    std::ifstream in(path, std::ios::binary);
    const std::string good((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string bad = good;
    bad[good.size() - readTraceInfo(path).records * 19 + 100 * 19 + 17] =
        static_cast<char>(238);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
    return good;
}

TEST(ServiceTest, CorruptTraceFailsItsPointNotTheServer)
{
    // The damaged record fails the point with an error reply; the
    // daemon answers the next frame, and its decode store kept no
    // failed decode: with the good bytes back at the same path the
    // same grid runs.
    const std::string path = "/tmp/shotgun_svc_corrupt.trace";
    const std::string good =
        recordCorruptTrace(tinyPreset("svc-corrupt", 0xc0), path);
    SimConfig config = SimConfig::make(presetByName("trace:" + path),
                                       SchemeType::Shotgun);
    config.warmupInstructions = 20000;
    config.measureInstructions = 50000;
    runner::ExperimentSet set;
    set.add(config.workload, "shotgun", config);

    TestServer server("corrupt");
    ServiceClient client(server.endpoint());
    try {
        client.submit(requestFor(set, "corrupt"));
        ADD_FAILURE() << "a corrupt trace ran";
    } catch (const ServiceError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "corrupt record 100 (bad branch type 238)"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(client.ping());

    std::ofstream(path, std::ios::binary | std::ios::trunc) << good;
    const auto remote = client.submit(requestFor(set, "restored"));
    ASSERT_EQ(remote.size(), 1u);
    EXPECT_TRUE(remote[0] == runSimulation(config));
    std::remove(path.c_str());
}

TEST(ServiceTest, TracedSubmitsAreNotMemoized)
{
    // A traced frame's parent span id is fresh per submit, so its
    // bytes never repeat: it is decoded, answered, and not stored.
    SubmitRequest request = requestFor(quickGrid(1, 0x7ace), "traced");
    request.traceId = 7;
    request.parentSpan = 9;
    const std::string line = encodeFrame(request);

    TestServer server("memo-traced");
    LineChannel channel(connectTo(Endpoint::parse(server.endpoint())));
    ASSERT_TRUE(channel.socket().setRecvTimeout(60000));
    for (int i = 0; i < 2; ++i) {
        const std::vector<std::string> replies =
            submitLine(channel, line);
        ASSERT_FALSE(replies.empty());
        EXPECT_EQ(
            decodeFrame<DoneEvent>(json::Value::parse(replies.back()))
                .status,
            "ok");
    }
    const MemoCacheStats memo = server.server().submitMemoStats();
    EXPECT_EQ(memo.entries, 0u);
    EXPECT_EQ(memo.misses, 2u);
}

TEST(ServiceTest, ConcurrentResubmitsOfOneGridAreBitwiseEqual)
{
    // Two connections resubmit one grid at once: their jobs share the
    // memoized request, and every delivery equals the in-process run
    // bit for bit, on both daemons.
    const runner::ExperimentSet set = quickGrid(1, 0xc0c0);
    const auto local = runner::ExperimentRunner().run(set);
    constexpr int kRounds = 3;

    TestServer server("memo-conc");
    TestFleet fleet("memo-conc-coord");
    const std::vector<
        std::pair<std::string, std::function<MemoCacheStats()>>>
        daemons = {
            {server.endpoint(),
             [&]() { return server.server().submitMemoStats(); }},
            {fleet.endpoint(),
             [&]() { return fleet.coordinator().submitMemoStats(); }},
        };
    for (const auto &daemon : daemons) {
        SCOPED_TRACE(daemon.first);
        std::vector<std::vector<SimResult>> delivered(2 * kRounds);
        std::vector<std::thread> clients;
        for (int c = 0; c < 2; ++c) {
            clients.emplace_back([&, c]() {
                ServiceClient client(daemon.first);
                for (int r = 0; r < kRounds; ++r)
                    delivered[c * kRounds + r] =
                        client.submit(requestFor(set, "memo-conc"));
            });
        }
        for (std::thread &client : clients)
            client.join();
        for (std::size_t d = 0; d < delivered.size(); ++d) {
            ASSERT_EQ(delivered[d].size(), set.size()) << "submit " << d;
            for (std::size_t i = 0; i < set.size(); ++i)
                EXPECT_TRUE(delivered[d][i] == local[i])
                    << "submit " << d << " index " << i;
        }
        // Both first submits may miss at once; the rest hit.
        const MemoCacheStats memo = daemon.second();
        EXPECT_EQ(memo.entries, 1u);
        EXPECT_EQ(memo.hits + memo.misses, 2u * kRounds);
        EXPECT_GE(memo.hits, 2u * kRounds - 2);
    }
}

TEST(ServiceTest, ClientLeavingMidJobLetsTheJobFinish)
{
    // A client that disconnects mid-job stops its stream, not its
    // job: the job completes, warming the daemon's result cache, and
    // its status row reads `ok`. Both daemons share the rule; the
    // coordinator's job runs on a one-slot worker. Each daemon gets
    // its own 9-point grid, so neither finds the other's points
    // warmed.
    ServerOptions one_worker;
    one_worker.jobs = 1;
    TestServer server("leave", one_worker);
    TestCoordinator coordinator("leave-coord");
    TestServer worker_server("leave-w", one_worker);
    fleet::WorkerOptions worker_options;
    worker_options.coordinator = coordinator.endpoint();
    worker_options.heartbeatMs = 100;
    fleet::FleetWorker worker(worker_server.server(), worker_options);
    worker.start();

    const std::vector<
        std::pair<std::string, std::function<MemoCacheStats()>>>
        daemons = {
            {server.endpoint(),
             [&]() { return server.server().cacheStats(); }},
            {coordinator.endpoint(),
             [&]() { return coordinator.server().cacheStats(); }},
        };
    std::uint64_t seed = 0x1ea5e;
    for (const auto &daemon : daemons) {
        SCOPED_TRACE(daemon.first);
        const runner::ExperimentSet set = quickGrid(3, seed);
        seed += 0x100;
        {
            LineChannel channel(
                connectTo(Endpoint::parse(daemon.first)));
            ASSERT_TRUE(channel.socket().setRecvTimeout(60000));
            ASSERT_TRUE(
                channel.sendLine(encodeFrame(requestFor(set, "leave"))));
            std::string line;
            ASSERT_TRUE(channel.recvLine(line));
            ASSERT_EQ(frameType(json::Value::parse(line)), "accepted");
            ASSERT_TRUE(channel.recvLine(line));
            ASSERT_EQ(frameType(json::Value::parse(line)), "result");
        } // The client leaves with most of its grid unsimulated.

        ServiceClient control(daemon.first);
        JobStatus job;
        for (int waited = 0; waited < 60000; ++waited) {
            const json::Value status = control.status();
            ASSERT_EQ(status.at("jobs").size(), 1u);
            job = decodeAs<JobStatus>(status.at("jobs").items()[0], "job");
            if (job.state != "queued" && job.state != "running")
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_EQ(job.state, "ok");
        EXPECT_EQ(job.completed, set.size());
        EXPECT_EQ(daemon.second().entries, set.size());
    }
}

TEST(ServiceTest, SubmitWithBadTraceFileIsRejected)
{
    const WorkloadPreset preset = tinyPreset("svc-trace", 1);

    SubmitRequest request;
    request.experiment = "bad-trace";
    runner::Experiment exp;
    exp.workload = "svc-trace";
    exp.label = "shotgun";
    exp.config = SimConfig::make(preset, SchemeType::Shotgun);
    exp.config.workload.tracePath =
        "/tmp/shotgun_svc_no_such_file.trace";
    request.grid.push_back(exp);

    TestServer server("badtrace");
    ServiceClient client(server.endpoint());

    // Missing file.
    EXPECT_THROW(client.submit(request), ServiceError);
    EXPECT_TRUE(client.ping());

    // Existing file that is not a trace: would fatal() the worker
    // mid-job without the submit-time probe.
    const std::string garbage = "/tmp/shotgun_svc_garbage.trace";
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "definitely not a shotgun trace, but quite long";
    }
    request.grid[0].config.workload.tracePath = garbage;
    EXPECT_THROW(client.submit(request), ServiceError);
    EXPECT_TRUE(client.ping());
    std::remove(garbage.c_str());

    // A real trace whose program differs from the submitted config
    // (the distributed stale-copy case): rejected at submit time,
    // because mid-job it would fatal() the whole daemon.
    const std::string trace = "/tmp/shotgun_svc_stale.trace";
    {
        Program prog(preset.program);
        TraceGenerator gen(prog, 1);
        recordTrace(gen, preset, 1, trace, 5000);
    }
    request.grid[0].config.workload.tracePath = trace;
    request.grid[0].config.workload.program.numFuncs += 1;
    request.grid[0].config.warmupInstructions = 10;
    request.grid[0].config.measureInstructions = 10;
    try {
        client.submit(request);
        FAIL() << "stale trace accepted";
    } catch (const ServiceError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("different program parameters"),
                  std::string::npos);
    }
    EXPECT_TRUE(client.ping());
    std::remove(trace.c_str());
}

TEST(ServiceTest, ConcurrentJobsInterleaveAndMatchInProcess)
{
    // Two grids submitted to one daemon with a one-thread pool: the
    // shorter grid B, submitted once the longer A is running, must
    // finish before A's last result -- the scheduler shares the pool
    // instead of running the older job to the end -- and each must
    // return results bitwise-identical to its in-process run.
    //
    // The check reads the order of the two result streams, not the
    // clock: A's longer measure keeps its remaining points far slower
    // than B's submit, even where every warmup restores from the
    // process-wide checkpoint store.
    runner::ExperimentSet set_a, set_b;
    const auto addGrid = [](runner::ExperimentSet &set,
                            const std::string &tag, int workloads,
                            std::uint64_t seed, std::uint64_t measure,
                            std::initializer_list<SchemeType> schemes) {
        const std::uint64_t warmup = 20000;
        for (int w = 0; w < workloads; ++w) {
            const WorkloadPreset preset =
                tinyPreset("svc-conc-" + tag + std::to_string(w),
                           seed + static_cast<std::uint64_t>(w));
            set.addBaseline(preset, warmup, measure);
            for (SchemeType type : schemes) {
                SimConfig config = SimConfig::make(preset, type);
                config.warmupInstructions = warmup;
                config.measureInstructions = measure;
                set.add(preset, schemeTypeName(type), config);
            }
        }
    };
    addGrid(set_a, "a", 3, 0x77b0, 300000,
            {SchemeType::Boomerang, SchemeType::Shotgun});
    addGrid(set_b, "b", 2, 0x77a0, 50000, {SchemeType::Shotgun});

    ServerOptions options;
    options.jobs = 1;
    TestServer server("concurrent", options);

    // One sequence over both streams: each A result and B's end.
    std::atomic<std::uint64_t> sequence{0};
    std::atomic<std::uint64_t> a_last{0};
    std::uint64_t b_done = 0;
    std::vector<SimResult> remote_a, remote_b;

    std::thread submit_a([&]() {
        ServiceClient client(server.endpoint());
        remote_a = client.submit(requestFor(set_a, "job-a"),
                                 [&](const ResultEvent &) {
                                     a_last.store(++sequence);
                                 });
    });
    while (a_last.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
        ServiceClient client(server.endpoint());
        remote_b = client.submit(requestFor(set_b, "job-b"));
        b_done = ++sequence;
    }
    submit_a.join();
    EXPECT_LT(b_done, a_last.load())
        << "job B ended after job A's last result: A held the pool";

    // The references run after the daemon's grids, so the daemon's
    // points did not restore warmups these runs stored.
    const auto local_a = runner::ExperimentRunner().run(set_a);
    const auto local_b = runner::ExperimentRunner().run(set_b);
    ASSERT_EQ(remote_a.size(), set_a.size());
    for (std::size_t i = 0; i < set_a.size(); ++i)
        EXPECT_TRUE(remote_a[i] == local_a[i]) << "A index " << i;
    ASSERT_EQ(remote_b.size(), set_b.size());
    for (std::size_t i = 0; i < set_b.size(); ++i)
        EXPECT_TRUE(remote_b[i] == local_b[i]) << "B index " << i;
}

TEST(ServiceTest, CancelRunningJobStopsDispatch)
{
    // A 1-worker pool serializes the 9 points, leaving a wide window
    // to cancel mid-job; the job must then stop dispatching, report
    // `cancelled` truthfully, and leave the tail unsimulated.
    const runner::ExperimentSet set = quickGrid(3);

    ServerOptions options;
    options.jobs = 1;
    TestServer server("cancel-running", options);

    std::atomic<bool> started{false};
    std::atomic<std::uint64_t> job_id{0};
    std::string failure;

    std::thread submitter([&]() {
        ServiceClient client(server.endpoint());
        try {
            SubmitRequest request = requestFor(set, "cancel-me");
            client.submit(request, [&](const ResultEvent &event) {
                job_id.store(event.job);
                started.store(true);
            });
            failure = "submit returned ok despite cancel";
        } catch (const ServiceError &e) {
            if (std::string(e.what()).find("cancelled") ==
                std::string::npos)
                failure = std::string("unexpected error: ") +
                          e.what();
        }
    });
    while (!started.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    ServiceClient control(server.endpoint());
    control.cancel(job_id.load());
    submitter.join();
    EXPECT_TRUE(failure.empty()) << failure;

    // The job's terminal status is `cancelled` with an honest
    // completed count, and the remaining points were never simulated.
    const json::Value status = control.status();
    ASSERT_EQ(status.at("jobs").size(), 1u);
    const auto job =
        decodeAs<JobStatus>(status.at("jobs").items()[0], "job");
    EXPECT_EQ(job.state, "cancelled");
    EXPECT_LT(job.completed, set.size());
    EXPECT_LT(server.server().cacheSize(), set.size());
}

TEST(ServiceTest, CacheEvictionRespectsByteBudget)
{
    const runner::ExperimentSet set = quickGrid(2); // 6 points.

    // One result's charge, read from an unbounded cache holding one.
    std::size_t charge = 0;
    {
        ServerOptions unbounded;
        unbounded.cacheBytes = 0;
        TestServer probe("evict-probe", unbounded);
        SubmitRequest one = requestFor(set, "evict-probe");
        one.grid.resize(1);
        ServiceClient(probe.endpoint()).submit(one);
        const MemoCacheStats stats = probe.server().cacheStats();
        ASSERT_EQ(stats.entries, 1u);
        charge = stats.bytes;
    }
    ASSERT_GT(charge, 0u);

    // Room for two and a half results (scheme names differ by a byte
    // or two), so the 6-point grid keeps two and evicts four.
    ServerOptions options;
    options.jobs = 2;
    options.cacheBytes = charge * 5 / 2;
    TestServer server("evict", options);

    ServiceClient client(server.endpoint());
    const auto first = client.submit(requestFor(set, "evict"));

    MemoCacheStats stats = server.server().cacheStats();
    EXPECT_LE(stats.bytes, options.cacheBytes);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 4u);

    // Resubmit: mostly recomputed (the cache was too small to hold
    // the grid), and the recomputed results are identical to the
    // first run and to in-process -- eviction can never serve a
    // stale or corrupted entry.
    const auto second = client.submit(requestFor(set, "evict"));
    const auto local = runner::ExperimentRunner().run(set);
    ASSERT_EQ(second.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
        EXPECT_TRUE(first[i] == second[i]) << "index " << i;
        EXPECT_TRUE(second[i] == local[i]) << "index " << i;
    }
    stats = server.server().cacheStats();
    EXPECT_LE(stats.bytes, options.cacheBytes);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(ServiceTest, ResultCachesDefaultToA64MiBBudget)
{
    // A daemon fed fresh configs for days must not grow its result
    // cache without bound: with default options, both daemons report
    // the 64 MiB default budget in `status`.
    TestServer server("budget");
    TestCoordinator coordinator("budget-coord");
    for (const std::string &endpoint :
         {server.endpoint(), coordinator.endpoint()}) {
        const json::Value status = ServiceClient(endpoint).status();
        EXPECT_EQ(status.at("server")
                      .at("cache")
                      .at("budget_bytes")
                      .asU64(),
                  64ull << 20)
            << endpoint;
    }
}

TEST(ServiceTest, JobErrorSurfacesAsServiceError)
{
    // A fake server that accepts the submit and then reports the job
    // itself failed (`done` status "error"): submit() must throw a
    // ServiceError carrying the server's message.
    const std::string path = "/tmp/shotgun_svc_job_error.sock";
    Listener fake(Endpoint::parse("unix:" + path));
    std::thread fake_thread([&]() {
        Socket sock = fake.accept();
        if (!sock.valid())
            return;
        LineChannel channel(std::move(sock));
        std::string line;
        while (channel.recvLine(line)) {
            const json::Value frame = json::Value::parse(line);
            if (frameType(frame) != "submit")
                continue;
            json::Value accepted = makeFrame("accepted");
            accepted.set("job", json::Value::number(std::uint64_t{1}));
            accepted.set(
                "total",
                json::Value::number(
                    std::uint64_t{frame.at("grid").size()}));
            accepted.set("fingerprints", json::Value::array());
            channel.sendLine(accepted.dump());
            DoneEvent done;
            done.job = 1;
            done.status = "error";
            done.completed = 0;
            done.message = "synthetic simulate failure";
            channel.sendLine(encodeFrame(done));
        }
    });

    const runner::ExperimentSet set = quickGrid(2);
    try {
        ServiceClient("unix:" + path)
            .submit(requestFor(set, "job-error"));
        FAIL() << "job failure was not propagated";
    } catch (const ServiceError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("synthetic simulate failure"),
                  std::string::npos)
            << e.what();
    }
    fake.shutdownListener();
    fake_thread.join();
}

TEST(ServiceTest, ClientTimesOutOnWedgedServer)
{
    // A listener that accepts the TCP/Unix handshake but never
    // answers a frame: the client must fail with a clear timeout
    // error instead of blocking forever.
    Listener wedged(
        Endpoint::parse("unix:/tmp/shotgun_svc_wedged.sock"));

    ServiceClient client("unix:/tmp/shotgun_svc_wedged.sock",
                         /*timeout_seconds=*/1);
    try {
        client.ping();
        FAIL() << "ping returned despite a wedged server";
    } catch (const SocketError &e) {
        EXPECT_NE(std::string(e.what()).find("sent nothing for 1s"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServiceTest, ShutdownInterruptsAcceptWithIdleClientConnected)
{
    // Regression: a connected-but-idle client must not wedge
    // shutdown -- the wake pipe interrupts the blocked accept() and
    // the idle connection is shut down and drained.
    auto server = std::make_unique<SimServer>(
        "unix:/tmp/shotgun_svc_test_idle_shutdown.sock",
        ServerOptions{});
    std::thread thread([&]() { server->serve(); });

    // An idle client: connects, then sends nothing at all.
    LineChannel idle(connectTo(Endpoint::parse(server->endpoint())));
    ASSERT_TRUE(idle.valid());

    // Shutdown arrives over a second connection.
    ServiceClient control(server->endpoint());
    control.shutdownServer();
    thread.join(); // Hangs here if accept/readers were not woken.

    // The idle client's connection was shut down by the server.
    std::string line;
    EXPECT_FALSE(idle.recvLine(line));
    server.reset();
    SUCCEED();
}

TEST(ServiceTest, ShutdownReleasesClientsQueuedInTheBacklog)
{
    // Regression: serve() stopped accepting on shutdown but kept the
    // listening socket open until the server was destroyed, so a
    // client whose connect was already queued in the backlog blocked
    // until its own deadline. serve() now closes the listener on its
    // way out and the queued client reads EOF at once.
    SimServer server("unix:/tmp/shotgun_svc_test_backlog.sock",
                     ServerOptions{});
    LineChannel queued(connectTo(Endpoint::parse(server.endpoint())));
    ASSERT_TRUE(queued.valid());
    ASSERT_TRUE(queued.socket().setRecvTimeout(10000));

    server.requestShutdown();
    server.serve(); // Returns at once: shutdown was already requested.

    std::string line;
    EXPECT_FALSE(queued.recvLine(line));
    EXPECT_FALSE(queued.timedOut())
        << "the queued client waited out its deadline";
}

TEST(ServiceTest, CancelUnknownJobIsAnError)
{
    TestServer server("cancel");
    ServiceClient client(server.endpoint());
    EXPECT_THROW(client.cancel(12345), ServiceError);
}

TEST(ServiceTest, ShutdownFrameStopsServe)
{
    auto server = std::make_unique<SimServer>(
        "unix:/tmp/shotgun_svc_test_shutdown.sock", ServerOptions{});
    std::thread thread([&]() { server->serve(); });

    ServiceClient client(server->endpoint());
    client.shutdownServer();
    thread.join(); // Returns only if shutdown actually stopped serve.
    server.reset();
    SUCCEED();
}

TEST(ServiceTest, ShutdownCancelsUnfinishedJobs)
{
    // A job still running when the server shuts down gets an honest
    // `cancelled` done frame; its client is never just dropped.
    const runner::ExperimentSet set = quickGrid(3);
    ServerOptions options;
    options.jobs = 1;
    auto server = std::make_unique<TestServer>("shutdown-mid-job",
                                               options);

    std::atomic<bool> started{false};
    std::string failure;
    std::thread submitter([&]() {
        try {
            ServiceClient client(server->endpoint());
            client.submit(requestFor(set, "shutdown-me"),
                          [&](const ResultEvent &) {
                              started.store(true);
                          });
            failure = "submit succeeded despite the shutdown";
        } catch (const ServiceError &e) {
            if (std::string(e.what()).find("cancelled") ==
                std::string::npos)
                failure = std::string("unexpected error: ") +
                          e.what();
        } catch (const std::exception &e) {
            failure =
                std::string("unexpected exception: ") + e.what();
        }
    });
    while (!started.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    server.reset(); // Shuts down mid-job and joins serve().
    submitter.join();
    EXPECT_TRUE(failure.empty()) << failure;
}

TEST(ServiceSocketTest, LongLineRoundTripsAndOverlongLineIsRefused)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel reader{Socket(fds[0])};
    LineChannel writer{Socket(fds[1])};
    ASSERT_TRUE(reader.socket().setRecvTimeout(60000));

    // A 16 MiB line arrives in about a thousand reads, each resuming
    // the newline search where the last one stopped.
    const std::string big(16u << 20, 'x');
    std::thread send([&]() {
        writer.sendLine(big);
        writer.sendLine("after");
    });
    std::string line;
    ASSERT_TRUE(reader.recvLine(line));
    EXPECT_TRUE(line == big) << "got " << line.size() << " bytes";
    ASSERT_TRUE(reader.recvLine(line));
    EXPECT_EQ(line, "after");
    send.join();

    // Past the 64 MiB bound without a newline: refused, not buffered
    // without end.
    std::thread flood([&]() {
        const std::string chunk(1u << 20, 'y');
        for (int i = 0; i < 66; ++i) {
            if (!writer.socket().sendAll(chunk.data(), chunk.size()))
                break;
        }
    });
    EXPECT_FALSE(reader.recvLine(line));
    EXPECT_FALSE(reader.timedOut());
    reader.socket().close(); // Fails the flood's pending send.
    flood.join();
}

TEST(ServiceEndpointTest, ParseAndFormat)
{
    const Endpoint unix_ep = Endpoint::parse("unix:/tmp/x.sock");
    EXPECT_EQ(unix_ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
    EXPECT_EQ(unix_ep.str(), "unix:/tmp/x.sock");

    const Endpoint tcp = Endpoint::parse("localhost:7401");
    EXPECT_EQ(tcp.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp.host, "localhost");
    EXPECT_EQ(tcp.port, 7401);

    EXPECT_THROW(Endpoint::parse("unix:"), SocketError);
    EXPECT_THROW(Endpoint::parse("no-port"), SocketError);
    EXPECT_THROW(Endpoint::parse("host:"), SocketError);
    EXPECT_THROW(Endpoint::parse("host:99999"), SocketError);
    EXPECT_THROW(Endpoint::parse("host:12ab"), SocketError);
}

} // namespace
} // namespace service
} // namespace shotgun
