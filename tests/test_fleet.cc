/**
 * @file
 * End-to-end tests for the fleet control plane: a real
 * FleetCoordinator on a Unix socket in this process, with real
 * SimServer+FleetWorker workers attached to it. The load-bearing
 * assertions are determinism and exactly-once delivery: a grid
 * submitted to the coordinator -- including one whose worker is
 * killed or stops heartbeating mid-grid -- returns results bitwise
 * identical to the same grid run in-process, and a persistent cache
 * directory answers a resubmitted grid across a coordinator restart
 * without any worker at all.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <utime.h>

#include "fleet/coordinator.hh"
#include "fleet/disk_cache.hh"
#include "fleet/worker.hh"
#include "runner/experiment.hh"
#include "runner/result_sink.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace fleet
{
namespace
{

using service::LineChannel;
using service::ResultEvent;
using service::ServiceClient;
using service::SubmitRequest;

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
quickGrid(int workloads = 2)
{
    const std::uint64_t warmup = 20000, measure = 50000;
    runner::ExperimentSet set;
    for (int w = 0; w < workloads; ++w) {
        const WorkloadPreset preset =
            tinyPreset("fleet-w" + std::to_string(w),
                       0xf1ee7 + static_cast<std::uint64_t>(w));
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
    request.jobs = 1;
    request.grid = set.experiments();
    return request;
}

/** A serve()ing FleetCoordinator on a Unix socket, RAII-stopped. */
class TestCoordinator
{
  public:
    explicit TestCoordinator(const std::string &tag,
                             CoordinatorOptions options = {})
        : coordinator_(endpointFor(tag), options),
          thread_([this]() { coordinator_.serve(); })
    {
    }

    /** The endpoint a coordinator tagged `tag` listens on. */
    static std::string endpointFor(const std::string &tag)
    {
        return "unix:/tmp/shotgun_fleet_c_" + tag + ".sock";
    }

    ~TestCoordinator() { shutdown(); }

    void shutdown()
    {
        if (thread_.joinable()) {
            coordinator_.requestShutdown();
            thread_.join();
        }
    }

    std::string endpoint() const { return coordinator_.endpoint(); }
    FleetCoordinator &coordinator() { return coordinator_; }

  private:
    FleetCoordinator coordinator_;
    std::thread thread_;
};

/** A SimServer with a FleetWorker attached to a coordinator. */
class TestWorker
{
  public:
    TestWorker(const std::string &tag, const std::string &coordinator,
               unsigned slots = 1, unsigned heartbeat_ms = 100)
        : server_("unix:/tmp/shotgun_fleet_w_" + tag + ".sock",
                  service::ServerOptions{}),
          thread_([this]() { server_.serve(); })
    {
        WorkerOptions options;
        options.coordinator = coordinator;
        options.name = tag;
        options.slots = slots;
        options.heartbeatMs = heartbeat_ms;
        worker_.reset(new FleetWorker(server_, options));
        worker_->start();
    }

    ~TestWorker() { stop(); }

    /** Tear the fleet side down first, then the server. Idempotent. */
    void stop()
    {
        if (worker_ != nullptr) {
            worker_->stop();
            worker_.reset();
        }
        if (thread_.joinable()) {
            server_.requestShutdown();
            thread_.join();
        }
    }

    service::SimServer &server() { return server_; }

  private:
    service::SimServer server_;
    std::thread thread_;
    std::unique_ptr<FleetWorker> worker_;
};

/** Poll until the coordinator sees `count` live workers. */
void
awaitWorkers(FleetCoordinator &coordinator, std::size_t count,
             unsigned timeout_ms = 10000)
{
    for (unsigned waited = 0; waited < timeout_ms; ++waited) {
        if (coordinator.liveWorkers() == count)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "never saw " << count << " live workers";
}

/**
 * Poll the coordinator's `status` until it reports `slots` parked
 * worker slots; false once `timeout_ms` passed without.
 */
bool
slotsParkWithin(const std::string &endpoint, std::uint64_t slots,
                unsigned timeout_ms)
{
    ServiceClient client(endpoint);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    do {
        if (client.status().at("fleet").at("parked_slots").asU64() ==
            slots)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
}

std::string
freshDir(const std::string &tag)
{
    const std::string dir = "/tmp/shotgun_fleet_" + tag + "_cache";
    std::system(("rm -rf " + dir).c_str());
    return dir;
}

TEST(FleetDiskCacheTest, RoundTripDamageAndForeignKeys)
{
    const std::string dir = freshDir("disk");
    DiskResultCache cache(dir);
    EXPECT_EQ(cache.entryCount(), 0u);

    SimResult value;
    value.workload = "w";
    value.scheme = "shotgun";
    value.instructions = 50000;
    value.cycles = 123456;
    value.ipc = 0.405;
    cache.store("ab12cd34", value);
    EXPECT_EQ(cache.entryCount(), 1u);

    SimResult loaded;
    ASSERT_TRUE(cache.load("ab12cd34", loaded));
    EXPECT_TRUE(loaded == value);

    // A second instance over the same directory sees the entry: this
    // is the restart-persistence contract.
    DiskResultCache reopened(dir);
    SimResult again;
    ASSERT_TRUE(reopened.load("ab12cd34", again));
    EXPECT_TRUE(again == value);

    // An entry written with a window's raw "delta" beside its result
    // (as earlier versions stored windowed points) still answers.
    {
        json::Value entry = json::Value::object();
        entry.set("fingerprint", json::Value::string("cd34ab12"));
        entry.set("result", service::encodeSimResult(value));
        StatsDelta delta;
        delta.instructions = 50000;
        delta.cycles = 123456;
        entry.set("delta", service::encodeStatsDelta(delta));
        std::ofstream out(dir + "/cd34ab12.json", std::ios::trunc);
        out << entry.dump() << '\n';
    }
    SimResult with_delta;
    ASSERT_TRUE(cache.load("cd34ab12", with_delta));
    EXPECT_TRUE(with_delta == value);
    std::remove((dir + "/cd34ab12.json").c_str());

    // Unknown fingerprints and non-hex (path-traversal-shaped) keys
    // miss; store with such a key is swallowed, not written.
    EXPECT_FALSE(cache.load("feedbeef", loaded));
    EXPECT_FALSE(cache.load("../evil", loaded));
    cache.store("../evil", value);
    EXPECT_EQ(cache.entryCount(), 1u);

    // A damaged file is a miss, never a crash or a garbage result.
    {
        std::ofstream out(dir + "/ab12cd34.json",
                          std::ios::binary | std::ios::trunc);
        out << "{\"fingerprint\": truncated";
    }
    EXPECT_FALSE(cache.load("ab12cd34", loaded));

    // A file whose embedded fingerprint disagrees with its name
    // (e.g. a stray copy) is rejected too.
    cache.store("00ff00ff", value);
    std::rename((dir + "/00ff00ff.json").c_str(),
                (dir + "/11ee11ee.json").c_str());
    EXPECT_FALSE(cache.load("11ee11ee", loaded));
}

TEST(FleetDiskCacheTest, ByteBoundTrimsOldestFirst)
{
    const std::string dir = freshDir("trim");
    SimResult value;
    value.workload = "w";
    value.scheme = "shotgun";
    value.instructions = 50000;
    value.cycles = 123456;

    // Measure one entry's on-disk size with an unbounded instance;
    // identical values under same-length fingerprints give every
    // entry the same size, so budgets become entry counts.
    DiskResultCache probe(dir);
    probe.store("aaaaaaaaaaaaaaaa", value);
    const std::uint64_t entry_bytes = probe.totalBytes();
    ASSERT_GT(entry_bytes, 0u);

    // Age the first entry so mtime ordering is unambiguous (stat
    // mtime has one-second granularity).
    auto ageFile = [&dir](const std::string &name, long seconds) {
        struct utimbuf times;
        times.actime = times.modtime = ::time(nullptr) - seconds;
        ASSERT_EQ(::utime((dir + "/" + name + ".json").c_str(),
                          &times),
                  0);
    };
    ageFile("aaaaaaaaaaaaaaaa", 100);

    // Room for exactly two entries.
    DiskResultCache cache(dir, 2 * entry_bytes);
    EXPECT_EQ(cache.maxBytes(), 2 * entry_bytes);
    cache.store("bbbbbbbbbbbbbbbb", value);
    EXPECT_EQ(cache.entryCount(), 2u); // Still within the bound.
    ageFile("bbbbbbbbbbbbbbbb", 50);

    cache.store("cccccccccccccccc", value); // Over: trims oldest.
    EXPECT_EQ(cache.entryCount(), 2u);
    SimResult loaded;
    EXPECT_FALSE(cache.load("aaaaaaaaaaaaaaaa", loaded));
    EXPECT_TRUE(cache.load("bbbbbbbbbbbbbbbb", loaded));
    EXPECT_TRUE(cache.load("cccccccccccccccc", loaded));

    // A bound below a single entry still keeps the entry just
    // stored: the freshest result always persists.
    const std::string tiny_dir = freshDir("trim_tiny");
    DiskResultCache tiny(tiny_dir, 1);
    tiny.store("dddddddddddddddd", value);
    EXPECT_EQ(tiny.entryCount(), 1u);
    EXPECT_TRUE(tiny.load("dddddddddddddddd", loaded));
}

TEST(FleetTest, CoordinatorMatchesInProcessBitwise)
{
    runner::ExperimentSet set = quickGrid(2);
    // A windowed config a client builds by hand is an ordinary grid
    // point: the fleet returns that window's own result.
    SimConfig windowed = set.experiments().back().config;
    windowed.window.measureStart = 10000;
    windowed.window.measureEnd = 30000;
    const std::size_t window_index =
        set.add(windowed.workload, "shotgun#window", windowed);
    const auto local = runner::ExperimentRunner().run(set);

    TestCoordinator coord("bitwise");
    TestWorker w1("bw-1", coord.endpoint());
    TestWorker w2("bw-2", coord.endpoint());
    TestWorker w3("bw-3", coord.endpoint());
    awaitWorkers(coord.coordinator(), 3);

    ServiceClient client(coord.endpoint());
    EXPECT_TRUE(client.ping());
    std::vector<ResultEvent> events;
    const auto remote = client.submit(
        requestFor(set, "fleet-bitwise"),
        [&](const ResultEvent &event) { events.push_back(event); });

    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
    EXPECT_TRUE(remote[window_index] == runSimulation(windowed));

    // Streamed strictly in grid order, like a single server.
    ASSERT_EQ(events.size(), set.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].index, i);

    // On the wire, every result frame (the window's included) carries
    // its result and no raw counters: resubmitted, the grid is
    // answered from the coordinator's cache through the same frames.
    LineChannel channel(
        service::connectTo(service::Endpoint::parse(coord.endpoint())));
    ASSERT_TRUE(channel.socket().setRecvTimeout(60000));
    ASSERT_TRUE(channel.sendLine(
        service::encodeFrame(requestFor(set, "fleet-bitwise"))));
    std::size_t result_frames = 0;
    std::string line;
    while (channel.recvLine(line)) {
        const std::string type =
            service::frameType(json::Value::parse(line));
        EXPECT_NE(type, "error") << line;
        if (type == "done" || type == "error")
            break;
        if (type == "result") {
            ++result_frames;
            EXPECT_EQ(line.find("\"delta\""), std::string::npos) << line;
        }
    }
    EXPECT_EQ(result_frames, set.size());

    // The serialized artifacts are byte-identical too.
    runner::ResultSink local_sink("fleet-bitwise");
    runner::appendResultRows(set, local, local_sink);
    runner::ResultSink remote_sink("fleet-bitwise");
    runner::appendResultRows(set, remote, remote_sink);
    std::ostringstream local_json, remote_json, local_csv, remote_csv;
    local_sink.writeJson(local_json);
    remote_sink.writeJson(remote_json);
    local_sink.writeCsv(local_csv);
    remote_sink.writeCsv(remote_csv);
    EXPECT_EQ(local_json.str(), remote_json.str());
    EXPECT_EQ(local_csv.str(), remote_csv.str());

    // The fleet did the work collectively: every point landed
    // exactly once (the per-index duplicate check lives in
    // ServiceClient::submit) and nothing is left queued.
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
}

TEST(FleetTest, WorkerKilledMidGridLandsEveryPointExactlyOnce)
{
    // Three workers, one killed after the first delivered point: its
    // in-flight tasks must be requeued on the survivors and the
    // stitched stream must stay complete, duplicate-free and bitwise
    // identical to the in-process run.
    const runner::ExperimentSet set = quickGrid(3);
    const auto local = runner::ExperimentRunner().run(set);

    TestCoordinator coord("kill");
    TestWorker w1("kill-1", coord.endpoint());
    TestWorker w2("kill-2", coord.endpoint());
    auto victim =
        std::make_unique<TestWorker>("kill-3", coord.endpoint());
    awaitWorkers(coord.coordinator(), 3);

    ServiceClient client(coord.endpoint());
    std::atomic<bool> killed{false};
    std::vector<ResultEvent> events;
    const auto remote = client.submit(
        requestFor(set, "fleet-kill"),
        [&](const ResultEvent &event) {
            events.push_back(event);
            // First result anywhere: shoot worker 3. Closing its
            // sockets makes the coordinator requeue whatever it had
            // in flight without waiting for the heartbeat monitor.
            if (!killed.exchange(true))
                victim->stop();
        });

    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
    ASSERT_EQ(events.size(), set.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].index, i);

    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
    EXPECT_EQ(coord.coordinator().liveWorkers(), 2u);
    victim.reset();
}

TEST(FleetTest, SilentWorkerIsDeclaredDeadAndItsTaskRequeued)
{
    // A raw-socket "worker" that registers, attaches one slot,
    // steals a task and then goes silent -- it neither returns the
    // result nor heartbeats. The heartbeat monitor must declare it
    // dead after missLimit intervals and requeue its task on the one
    // real worker, and the job must still finish byte-identical.
    const runner::ExperimentSet set = quickGrid(2);
    const auto local = runner::ExperimentRunner().run(set);

    CoordinatorOptions options;
    options.heartbeatIntervalMs = 50;
    options.heartbeatMissLimit = 2;
    TestCoordinator coord("silent", options);

    // The fake worker: a control connection that heartbeats every
    // 20ms until its slot receives a work frame, then stops cold.
    std::atomic<bool> got_work{false};
    std::atomic<bool> fake_stop{false};
    LineChannel control(service::connectTo(
        service::Endpoint::parse(coord.endpoint())));
    service::RegisterRequest reg;
    reg.name = "fake";
    reg.slots = 1;
    ASSERT_TRUE(
        control.sendLine(service::encodeFrame(reg)));
    std::string line;
    ASSERT_TRUE(control.recvLine(line));
    const std::uint64_t fake_id =
        json::Value::parse(line).at("worker").asU64();

    std::thread fake_heart([&]() {
        while (!got_work.load() && !fake_stop.load()) {
            service::HeartbeatFrame hb;
            hb.worker = fake_id;
            if (!control.sendLine(service::encodeFrame(hb)))
                return;
            std::string reply;
            if (!control.recvLine(reply))
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });
    LineChannel slot(service::connectTo(
        service::Endpoint::parse(coord.endpoint())));
    json::Value attach = service::makeFrame("attach");
    attach.set("worker", json::Value::number(fake_id));
    ASSERT_TRUE(slot.sendLine(attach.dump()));
    ASSERT_TRUE(slot.recvLine(line));
    std::thread fake_slot([&]() {
        std::string work_line;
        if (!slot.sendLine(service::makeFrame("steal").dump()))
            return;
        if (!slot.recvLine(work_line))
            return;
        // Swallow the work frame and go silent.
        got_work.store(true);
    });

    TestWorker real("silent-real", coord.endpoint());
    awaitWorkers(coord.coordinator(), 2);

    ServiceClient client(coord.endpoint());
    std::vector<ResultEvent> events;
    const auto remote = client.submit(
        requestFor(set, "fleet-silent"),
        [&](const ResultEvent &event) { events.push_back(event); });

    // The fake held one task hostage; finishing the grid proves the
    // monitor requeued it. Every index landed exactly once, bitwise
    // identical to in-process.
    EXPECT_TRUE(got_work.load());
    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
    ASSERT_EQ(events.size(), set.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].index, i);
    EXPECT_EQ(coord.coordinator().liveWorkers(), 1u);
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);

    fake_stop.store(true);
    control.socket().shutdownBoth();
    slot.socket().shutdownBoth();
    fake_heart.join();
    fake_slot.join();
}

TEST(FleetTest, OverflowingNumberIsRejectedAtSubmit)
{
    // A double that overflows to inf must be refused at the frame
    // boundary. Accepted, the coordinator re-encoded it as the token
    // `inf` in its work frame; every worker slot that stole the task
    // failed to parse it, dropped its connection and had the task
    // requeued, forever -- the client never got `done` or `error`.
    TestCoordinator coord("overflow");
    TestWorker worker("overflow-w", coord.endpoint(), 2);
    awaitWorkers(coord.coordinator(), 1);

    std::string frame =
        service::encodeFrame(requestFor(quickGrid(1), "fleet-overflow"));
    const std::string field = "\"issue_efficiency\":";
    const auto pos = frame.find(field);
    ASSERT_NE(pos, std::string::npos);
    const auto end = frame.find(',', pos);
    frame.replace(pos + field.size(), end - pos - field.size(), "1e400");

    LineChannel channel(service::connectTo(
        service::Endpoint::parse(coord.endpoint())));
    channel.socket().setRecvTimeout(5000);
    ASSERT_TRUE(channel.sendLine(frame));
    std::string type;
    std::string line;
    while (type != "error" && type != "done") {
        ASSERT_TRUE(channel.recvLine(line))
            << "no error reply within 5 s (last frame: " << type << ")";
        type = service::frameType(json::Value::parse(line));
    }
    EXPECT_EQ(type, "error") << line;
    EXPECT_NE(line.find("out of range"), std::string::npos) << line;
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
}

TEST(FleetTest, UnrunnableConfigIsRejectedAndTheWorkerSurvives)
{
    // Confluence with a zero-way index table divides by zero when the
    // scheme is built, which would kill the worker that ran it. It
    // must be an error reply at submit, and the same worker must go on
    // to serve a normal grid.
    TestCoordinator coord("unrunnable");
    TestWorker worker("unrunnable-w", coord.endpoint(), 2);
    awaitWorkers(coord.coordinator(), 1);

    const WorkloadPreset preset = tinyPreset("fleet-unrunnable", 0xbad);
    SimConfig config = SimConfig::make(preset, SchemeType::Confluence);
    config.warmupInstructions = 20000;
    config.measureInstructions = 50000;
    config.scheme.confluence.indexWays = 0;
    runner::ExperimentSet hostile;
    hostile.add(preset, "confluence", config);

    ServiceClient client(coord.endpoint(), 10);
    try {
        client.submit(requestFor(hostile, "fleet-unrunnable"));
        ADD_FAILURE() << "an unrunnable config was accepted";
    } catch (const service::ServiceError &e) {
        EXPECT_NE(std::string(e.what()).find("index_ways"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);

    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);
    const auto remote = client.submit(requestFor(set, "fleet-after"));
    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
}

TEST(FleetTest, CorruptTraceFailsTheJobAndEveryWorkerSurvives)
{
    // Record 100's branch-type byte flipped: the header and the file
    // size are intact, so the workers admit the points and find the
    // damage while they decode. The job fails with the record named,
    // nothing is requeued, and both workers stay to run the next grid.
    const WorkloadPreset preset = tinyPreset("fleet-corrupt", 0xc0);
    const std::string path = "/tmp/shotgun_fleet_corrupt.trace";
    {
        Program prog(preset.program);
        TraceGenerator gen(prog, 1);
        recordTraceInstructions(gen, preset, 1, path, 100000);
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        const std::uint64_t records = readTraceInfo(path).records;
        file.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(path) - records * 19 + 100 * 19 +
            17));
        file.put(static_cast<char>(238));
    }
    runner::ExperimentSet corrupt;
    for (SchemeType type : {SchemeType::Baseline, SchemeType::Shotgun}) {
        SimConfig config =
            SimConfig::make(presetByName("trace:" + path), type);
        config.warmupInstructions = 20000;
        config.measureInstructions = 50000;
        corrupt.add(config.workload, schemeTypeName(type), config);
    }

    TestCoordinator coord("corrupt");
    TestWorker w1("corrupt-1", coord.endpoint());
    TestWorker w2("corrupt-2", coord.endpoint());
    awaitWorkers(coord.coordinator(), 2);

    ServiceClient client(coord.endpoint(), 60);
    try {
        client.submit(requestFor(corrupt, "fleet-corrupt"));
        ADD_FAILURE() << "a corrupt trace ran";
    } catch (const service::ServiceError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "corrupt record 100 (bad branch type 238)"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
    EXPECT_EQ(coord.coordinator().liveWorkers(), 2u);

    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);
    const auto remote = client.submit(requestFor(set, "fleet-after"));
    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
    EXPECT_EQ(coord.coordinator().liveWorkers(), 2u);
    std::remove(path.c_str());
}

TEST(FleetTest, PersistentCacheAnswersAcrossRestartWithoutWorkers)
{
    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);
    const std::string dir = freshDir("restart");

    // First life: one worker computes the grid; every result is
    // written through to the cache directory.
    {
        CoordinatorOptions options;
        options.cacheDir = dir;
        TestCoordinator coord("restart-a", options);
        TestWorker worker("restart-w", coord.endpoint());
        awaitWorkers(coord.coordinator(), 1);
        ServiceClient client(coord.endpoint());
        const auto first =
            client.submit(requestFor(set, "fleet-restart"));
        ASSERT_EQ(first.size(), set.size());
        for (std::size_t i = 0; i < set.size(); ++i)
            EXPECT_TRUE(first[i] == local[i]) << "index " << i;
    }

    // Second life: a fresh coordinator over the same directory, and
    // deliberately no workers at all -- the whole grid must be
    // served from disk, marked cached, in grid order.
    CoordinatorOptions options;
    options.cacheDir = dir;
    TestCoordinator coord("restart-b", options);
    ServiceClient client(coord.endpoint());
    std::size_t cached = 0;
    const auto second = client.submit(
        requestFor(set, "fleet-restart"),
        [&](const ResultEvent &event) { cached += event.cached; });
    ASSERT_EQ(second.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(second[i] == local[i]) << "index " << i;
    EXPECT_EQ(cached, set.size());
    EXPECT_GT(coord.coordinator().cacheStats().backendHits, 0u);
}

TEST(FleetTest, StatusFrameReportsFleetAndWorkers)
{
    const runner::ExperimentSet set = quickGrid(1);

    TestCoordinator coord("status");
    TestWorker worker("status-w", coord.endpoint(), /*slots=*/2);
    awaitWorkers(coord.coordinator(), 1);

    ServiceClient client(coord.endpoint());
    client.submit(requestFor(set, "fleet-status"));
    // Poll until a heartbeat has reported the cache counters the
    // simulations just bumped: one miss per point.
    auto reportedMisses = [](const json::Value &frame) {
        const json::Value &workers = frame.at("fleet").at("workers");
        return workers.size() != 1
                   ? 0u
                   : service::decodeAs<service::WorkerStatus>(
                         workers.items()[0], "worker")
                         .cache.misses;
    };
    json::Value status = client.status();
    for (int waited = 0;
         reportedMisses(status) != set.size() && waited < 10000;
         waited += 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        status = client.status();
    }

    EXPECT_EQ(status.at("server").at("role").asString(),
              "coordinator");
    EXPECT_EQ(status.at("server").at("protocol").asU64(),
              service::kProtocolVersion);

    const json::Value &fleet = status.at("fleet");
    EXPECT_EQ(fleet.at("queue_depth").asU64(), 0u);
    EXPECT_EQ(fleet.at("inflight").asU64(), 0u);
    EXPECT_EQ(fleet.at("total_slots").asU64(), 2u);
    ASSERT_EQ(fleet.at("workers").size(), 1u);
    const auto row = service::decodeAs<service::WorkerStatus>(
        fleet.at("workers").items()[0], "worker");
    EXPECT_EQ(row.name, "status-w");
    EXPECT_EQ(row.slots, 2u);
    EXPECT_TRUE(row.alive);
    EXPECT_EQ(row.completed, set.size());
    EXPECT_GT(row.throughput, 0.0);
    EXPECT_LT(row.heartbeatAgeMs, 5000u);
    // The worker simulated the whole grid: its heartbeat carried one
    // cache miss per point and no hits.
    EXPECT_EQ(row.cache.misses, set.size());

    // The coordinator cache holds every fingerprint; a resubmit is
    // answered from it without touching the worker.
    const json::Value &cache = status.at("server").at("cache");
    EXPECT_EQ(cache.at("entries").asU64(), set.size());
    std::size_t cached = 0;
    client.submit(requestFor(set, "fleet-status-again"),
                  [&](const ResultEvent &event) {
                      cached += event.cached;
                  });
    EXPECT_EQ(cached, set.size());
}

// The attach tests run coordinator and worker at a 60 s heartbeat, so
// no heartbeat or heartbeat-paced retry lands inside their 2 s
// deadlines: a slot parks because registration woke it, and a
// worker rejoins because its backoff retried within milliseconds.
constexpr unsigned kSlowHeartbeatMs = 60000;

CoordinatorOptions
slowHeartbeat()
{
    CoordinatorOptions options;
    options.heartbeatIntervalMs = kSlowHeartbeatMs;
    return options;
}

TEST(FleetAttachTest, SlotsParkAsSoonAsTheWorkerRegisters)
{
    TestCoordinator coord("attach", slowHeartbeat());
    TestWorker worker("attach-w", coord.endpoint(), 2,
                      kSlowHeartbeatMs);
    EXPECT_TRUE(slotsParkWithin(coord.endpoint(), 2, 2000));
}

TEST(FleetAttachTest, WorkerStartedBeforeItsCoordinatorJoinsOnListen)
{
    // The worker's first connects find no listener; its backoff must
    // retry within milliseconds, not a heartbeat, once there is one.
    TestWorker worker("early-w", TestCoordinator::endpointFor("early"),
                      2, kSlowHeartbeatMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    TestCoordinator coord("early", slowHeartbeat());
    EXPECT_TRUE(slotsParkWithin(coord.endpoint(), 2, 2000));
}

TEST(FleetAttachTest, WorkerRejoinsARestartedCoordinator)
{
    // The coordinator goes away and comes back on the same endpoint:
    // the worker notices its closed control connection at once,
    // registers again and re-parks both slots, then serves a grid.
    auto coord =
        std::make_unique<TestCoordinator>("rejoin", slowHeartbeat());
    TestWorker worker("rejoin-w", coord->endpoint(), 2,
                      kSlowHeartbeatMs);
    ASSERT_TRUE(slotsParkWithin(coord->endpoint(), 2, 2000));

    coord.reset();
    coord = std::make_unique<TestCoordinator>("rejoin", slowHeartbeat());
    ASSERT_TRUE(slotsParkWithin(coord->endpoint(), 2, 2000));

    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);
    ServiceClient client(coord->endpoint());
    const auto remote = client.submit(requestFor(set, "fleet-rejoin"));
    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
}

TEST(FleetTest, SubmitWithNoWorkersWaitsThenCompletes)
{
    // A grid submitted to an empty fleet must queue (not fail), and
    // complete as soon as the first worker registers.
    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);

    TestCoordinator coord("late");
    ServiceClient client(coord.endpoint());

    std::vector<SimResult> remote;
    std::thread submitter([&]() {
        remote = client.submit(requestFor(set, "fleet-late"));
    });
    // Wait until the job's tasks are actually queued, then bring up
    // the first worker.
    for (int waited = 0;
         coord.coordinator().queueDepth() == 0 && waited < 10000;
         ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(coord.coordinator().queueDepth(), 0u);

    TestWorker worker("late-w", coord.endpoint());
    submitter.join();
    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
}

TEST(FleetTest, ShutdownCancelsUnfinishedJobs)
{
    // A job waiting on an empty fleet when the coordinator shuts
    // down gets an honest `cancelled` done frame, not a hang.
    const runner::ExperimentSet set = quickGrid(1);

    auto coord = std::make_unique<TestCoordinator>("shutdown");
    ServiceClient client(coord->endpoint());

    std::string failure;
    std::thread submitter([&]() {
        try {
            client.submit(requestFor(set, "fleet-shutdown"));
            failure = "submit succeeded with no workers";
        } catch (const service::ServiceError &e) {
            if (std::string(e.what()).find("cancelled") ==
                std::string::npos)
                failure = std::string("unexpected error: ") +
                          e.what();
        } catch (const std::exception &e) {
            failure =
                std::string("unexpected exception: ") + e.what();
        }
    });
    for (int waited = 0;
         coord->coordinator().queueDepth() == 0 && waited < 10000;
         ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    coord->shutdown();
    submitter.join();
    EXPECT_TRUE(failure.empty()) << failure;
}

} // namespace
} // namespace fleet
} // namespace shotgun
