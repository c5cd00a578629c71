/**
 * @file
 * service-resubmit: a closed loop of one client connection submitting
 * small grids (2 presets x 2 schemes, short runs) over a Unix socket
 * to a fresh shotgun-coord with one shotgun-serve worker of 2 slots.
 * About three in four submits repeat an earlier grid (chosen from the
 * seed); the rest are new generator seeds. A repeat is answered from
 * the coordinator's result cache -- codec, fingerprinting, sockets and
 * the cache, no simulation -- while a new grid adds dispatch and
 * worker compute. A core-loop speedup therefore moves the misses and
 * leaves the hits alone; a cache or identity change shows on hits.
 *
 * Checks: every delivered result equals an in-process runSimulation
 * of the same config (computed untimed, after the loop, in a fresh
 * process), every repeat equals the first delivery, and the
 * coordinator's cache hits equal the repeated points.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/random.hh"
#include "prefetch/factory.hh"
#include "runner/experiment.hh"
#include "service/client.hh"
#include "service/codec.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace shotgun;

namespace
{

constexpr std::uint64_t kReferenceSeed = 1;
constexpr std::size_t kPointsPerSubmit = 4;

/** Client deadline per request; a run must end within 180 s. */
constexpr unsigned kSubmitTimeoutS = 30;

std::vector<runner::Experiment>
serviceGrid(const Options &options, std::uint64_t trace_seed)
{
    const std::uint64_t warmup = options.quick ? 5000 : 20000;
    const std::uint64_t measure = options.quick ? 10000 : 60000;
    std::vector<runner::Experiment> grid;
    for (WorkloadId id : {WorkloadId::Nutch, WorkloadId::Zeus}) {
        const WorkloadPreset preset = makePreset(id);
        for (const char *scheme : {"baseline", "shotgun"}) {
            runner::Experiment exp;
            exp.workload = preset.name;
            exp.label = scheme;
            exp.config =
                SimConfig::make(preset, schemeTypeByName(scheme));
            exp.config.warmupInstructions = warmup;
            exp.config.measureInstructions = measure;
            exp.config.traceSeed = trace_seed;
            grid.push_back(std::move(exp));
        }
    }
    return grid;
}

pid_t
spawn(const std::vector<std::string> &argv, const std::string &log)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        std::vector<char *> args;
        for (const std::string &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    if (pid < 0)
        throw std::runtime_error("fork failed");
    return pid;
}

double
vmHwmMb(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/** A running coordinator plus one 2-slot worker, stopped on scope exit. */
class Fleet
{
  public:
    Fleet(const Options &options, const std::string &tag, bool traced)
        : coordEndpoint("unix:coord-" + tag + ".sock"),
          workerEndpoint_("unix:worker-" + tag + ".sock"),
          traceFile_(traced ? "coord-trace-" + tag + ".json" : "")
    {
        std::vector<std::string> coord{options.binDir + "/shotgun-coord",
                                       "--listen", coordEndpoint,
                                       "--quiet"};
        if (traced) {
            coord.push_back("--trace-out");
            coord.push_back(traceFile_);
        }
        coord_ = spawn(coord, "coord-" + tag + ".log");
        worker_ = spawn({options.binDir + "/shotgun-serve", "--listen",
                         workerEndpoint_, "--coordinator", coordEndpoint,
                         "--name", "w1", "--jobs", "2", "--quiet"},
                        "worker-" + tag + ".log");
        try {
            waitForSlots(2);
        } catch (...) {
            stop();
            throw;
        }
    }

    ~Fleet() { stop(); }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    std::unique_ptr<service::ServiceClient>
    connect(double timeout_s = 20.0) const
    {
        const auto start = Clock::now();
        for (;;) {
            try {
                return std::make_unique<service::ServiceClient>(
                    coordEndpoint, kSubmitTimeoutS);
            } catch (const std::exception &) {
                if (secondsSince(start) > timeout_s)
                    throw;
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        }
    }

    double peakRssMb() const
    {
        return std::max(vmHwmMb(coord_), vmHwmMb(worker_));
    }

    /** Orderly shutdown (worker, then coordinator), then reap both. */
    void stop()
    {
        if (coord_ < 0)
            return;
        for (const std::string &ep : {workerEndpoint_, coordEndpoint}) {
            try {
                service::ServiceClient(ep, 5).shutdownServer();
            } catch (const std::exception &) {
            }
        }
        for (pid_t pid : {worker_, coord_})
            reap(pid);
        coord_ = worker_ = -1;
        for (const std::string &ep : {workerEndpoint_, coordEndpoint})
            ::unlink(ep.substr(5).c_str());
    }

    /** Durations (ms) of the coordinator's fleet "queued" spans. */
    std::vector<double> queueWaitsMs() const
    {
        std::vector<double> out;
        if (traceFile_.empty())
            return out;
        std::ifstream in(traceFile_);
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        const Value doc = Value::parse(text);
        for (const Value &ev : doc.at("traceEvents").items()) {
            const Value *name = ev.find("name");
            const Value *cat = ev.find("cat");
            if (name != nullptr && cat != nullptr &&
                name->asString() == "queued" &&
                cat->asString() == "fleet")
                out.push_back(ev.at("dur").asDouble() / 1e3);
        }
        ::unlink(traceFile_.c_str());
        return out;
    }

    const std::string coordEndpoint;

  private:
    void waitForSlots(std::uint64_t slots)
    {
        auto client = connect();
        const auto start = Clock::now();
        for (;;) {
            const Value status = client->status();
            const Value *fleet = status.find("fleet");
            if (fleet != nullptr &&
                fleet->at("parked_slots").asU64() >= slots)
                return;
            if (secondsSince(start) > 20.0)
                throw std::runtime_error("worker never attached");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    static void reap(pid_t pid)
    {
        const auto start = Clock::now();
        int status = 0;
        while (::waitpid(pid, &status, WNOHANG) == 0) {
            if (secondsSince(start) > 10.0) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    const std::string workerEndpoint_;
    const std::string traceFile_;
    pid_t coord_ = -1;
    pid_t worker_ = -1;
};

/** The coordinator's result-cache hits so far; 0 if it cannot say. */
std::uint64_t
coordinatorHits(service::ServiceClient &client, Report &report)
{
    try {
        return client.status().at("server").at("cache").at("hits").asU64();
    } catch (const std::exception &e) {
        report.error("service-resubmit: status failed: " +
                     std::string(e.what()));
        return 0;
    }
}

/** Everything one closed-loop session observed. */
struct Session
{
    std::vector<std::uint64_t> gridSeeds;
    std::vector<std::vector<std::string>> digests; ///< First delivery.
    std::vector<double> hitMs, missMs;             ///< Untraced submits.
    std::vector<double> untracedS, tracedS;
    std::vector<double> pointSimMs; ///< Traced miss points.
    std::uint64_t submits = 0, repeatedPoints = 0, cachedPoints = 0,
                  points = 0, instructions = 0;
};

/**
 * Submit one grid and fold the outcome into `session`. `grid_index`
 * names a grid already in the session (a repeat) or the next new one.
 * A submit that throws (an error frame, a lost connection, the client
 * deadline) counts as failed; returns false then, since the
 * connection can no longer be trusted.
 */
bool
submitOnce(const Options &options, service::ServiceClient &client,
           Session &session, std::size_t grid_index, bool traced,
           Report &report)
{
    const bool repeat = grid_index < session.gridSeeds.size();
    const std::uint64_t trace_seed =
        repeat ? session.gridSeeds[grid_index]
               : (options.seed << 20) + 2 + session.gridSeeds.size();
    service::SubmitRequest request;
    request.experiment = "perfbench";
    request.grid = serviceGrid(options, trace_seed);

    std::size_t cached = 0;
    obs::Span span("submit", "bench");
    if (traced) {
        request.traceId = obs::tracer().defaultTraceId();
        request.parentSpan = span.id();
    }
    auto on_result = [&](const service::ResultEvent &event) {
        cached += event.cached ? 1 : 0;
        if (!traced)
            return;
        if (event.hasTiming && !event.cached) {
            const obs::PointTiming &t = event.timing;
            session.pointSimMs.push_back(
                static_cast<double>(t.decodeUs + t.warmupUs + t.restoreUs +
                                    t.measureUs) /
                1e3);
        }
        collectedSpans().insert(collectedSpans().end(), event.spans.begin(),
                                event.spans.end());
    };
    const auto start = Clock::now();
    std::vector<SimResult> results;
    try {
        results = client.submit(request, on_result);
    } catch (const std::exception &e) {
        report.attempted(1);
        report.failed(1);
        report.error("service-resubmit: submit failed: " +
                     std::string(e.what()));
        return false;
    }
    const double seconds = secondsSince(start);
    span.end();

    report.attempted(1);
    ++session.submits;
    session.points += results.size();
    session.cachedPoints += cached;
    (traced ? session.tracedS : session.untracedS).push_back(seconds);
    if (!traced)
        (cached == results.size() ? session.hitMs : session.missMs)
            .push_back(seconds * 1e3);
    std::vector<std::string> digests;
    for (const SimResult &r : results) {
        digests.push_back(digest(service::encodeSimResult(r)));
        session.instructions += r.instructions;
    }
    const bool expected_cache = repeat ? cached == results.size()
                                       : cached == 0;
    if (repeat) {
        session.repeatedPoints += results.size();
        if (digests != session.digests[grid_index]) {
            report.failed(1);
            report.error("service-resubmit: repeat of grid " +
                         std::to_string(grid_index) +
                         " differs from its first delivery");
        } else if (!expected_cache) {
            report.error("service-resubmit: repeat of grid " +
                         std::to_string(grid_index) +
                         " was not answered from cache");
        }
    } else {
        session.gridSeeds.push_back(trace_seed);
        session.digests.push_back(std::move(digests));
        if (!expected_cache)
            report.error("service-resubmit: new grid answered from "
                         "cache");
    }
    return true;
}

/**
 * The closed loop: in every block of four submits one, at a position
 * drawn from the seed, is a new grid and three repeat earlier grids
 * drawn from the seed -- an exact 1:3 mix, so the seed changes which
 * grids repeat but not how much simulation a run asks for. With
 * `alternate`, every other submit carries a trace id.
 */
void
runLoop(const Options &options, service::ServiceClient &client,
        Session &session, double seconds, bool alternate, Report &report)
{
    Rng rng(mix64(options.seed ^ 0x5e55));
    const auto start = Clock::now();
    std::uint64_t n = 0, new_slot = 0;
    while (n < 8 || secondsSince(start) < seconds) {
        if (n % 4 == 0)
            new_slot = rng.next() % 4;
        const bool repeat = n % 4 != new_slot;
        const std::size_t grid_index =
            repeat ? rng.next() % session.gridSeeds.size()
                   : session.gridSeeds.size();
        if (!submitOnce(options, client, session, grid_index,
                        alternate && (n % 2 == 1), report))
            return;
        ++n;
    }
}

/**
 * Every distinct grid the session delivered, re-run in-process in a
 * fresh child through ExperimentRunner; each mismatching grid counts
 * one failed submit (its first delivery was wrong).
 */
void
verify(const Options &options, const Session &session, Report &report)
{
    const Value child = runInChild([&]() {
        std::vector<runner::Experiment> all;
        for (std::uint64_t seed : session.gridSeeds) {
            for (runner::Experiment &exp : serviceGrid(options, seed))
                all.push_back(std::move(exp));
        }
        runner::RunnerOptions ropts;
        ropts.jobs = hostJobs();
        Value digests = Value::array();
        for (const SimResult &r : runner::ExperimentRunner(ropts).run(all))
            digests.push(Value::string(digest(service::encodeSimResult(r))));
        Value out = Value::object();
        out.set("digests", std::move(digests));
        return out;
    });
    if (const Value *err = child.find("error")) {
        report.error("service-resubmit reference run failed: " +
                     err->asString());
        report.failed(session.gridSeeds.size());
        return;
    }
    const auto &digests = child.at("digests").items();
    for (std::size_t g = 0; g < session.gridSeeds.size(); ++g) {
        for (std::size_t p = 0; p < kPointsPerSubmit; ++p) {
            if (digests[g * kPointsPerSubmit + p].asString() !=
                session.digests[g][p]) {
                report.failed(1);
                report.error("service-resubmit: grid " +
                             std::to_string(g) +
                             " differs from in-process runSimulation");
                break;
            }
        }
    }
}

/** Start the fleet and answer the reference grid (builds programs). */
std::unique_ptr<Fleet>
setUp(const Options &options, const std::string &tag, bool traced,
      Session *session, Report *report)
{
    auto fleet = std::make_unique<Fleet>(options, tag, traced);
    service::SubmitRequest request;
    request.experiment = "perfbench-reference";
    request.grid = serviceGrid(options, kReferenceSeed);
    const std::vector<SimResult> results =
        fleet->connect()->submit(request);
    if (session != nullptr) {
        session->gridSeeds.push_back(kReferenceSeed);
        std::vector<std::string> digests;
        for (const SimResult &r : results)
            digests.push_back(digest(service::encodeSimResult(r)));
        session->digests.push_back(std::move(digests));
        std::vector<AccuracyPoint> accuracy;
        for (std::size_t i = 0; i < results.size(); i += 2)
            accuracy.push_back(
                {request.grid[i].config.workload.id, results[i],
                 results[i + 1]});
        if (report != nullptr)
            reportAccuracy(*report, accuracy);
    }
    return fleet;
}

void
printLatencies(const Session &session)
{
    std::printf("service-resubmit: %llu submits, %zu hits (p50 %.3f ms, "
                "p95 %.3f ms), %zu misses (p50 %.3f ms, p90 %.3f ms), "
                "untraced\n",
                static_cast<unsigned long long>(session.submits),
                session.hitMs.size(), quantile(session.hitMs, 0.5),
                quantile(session.hitMs, 0.95), session.missMs.size(),
                quantile(session.missMs, 0.5),
                quantile(session.missMs, 0.9));
}

} // namespace

void
serviceMeasure(const Options &options, Report &report)
{
    Session session;
    std::unique_ptr<Fleet> fleet =
        setUp(options, "main", false, &session, &report);
    auto client = fleet->connect();
    const std::uint64_t hits_before = coordinatorHits(*client, report);
    runLoop(options, *client, session, options.seconds, false, report);
    const std::uint64_t hits = coordinatorHits(*client, report) - hits_before;
    const double peak_rss = std::max(fleet->peakRssMb(), peakRssMb());
    client.reset();
    fleet->stop();
    verify(options, session, report);
    // Set-up trials after the loop (see paperSweepMeasure).
    report.metric("setup_s", medianSetupSeconds(9, [&](unsigned trial) {
                      setUp(options, "t" + std::to_string(trial), false,
                            nullptr, nullptr)
                          ->stop();
                  }),
                  "s");

    report.check("service-resubmit coordinator hits (== repeated points)",
                 hits, session.repeatedPoints);
    if (session.untracedS.empty())
        return;
    double total = 0.0;
    for (double s : session.untracedS)
        total += s;
    report.metric("grid_s", median(session.untracedS), "s");
    report.metric("delivered_minstr_per_s",
                  static_cast<double>(session.instructions) / total / 1e6,
                  "Minstr/s");
    report.metric("submits_per_s",
                  static_cast<double>(session.submits) / total, "1/s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    printLatencies(session);
}

void
serviceLayers(const Options &options, Report &report, bool primary)
{
    const auto setup_start = Clock::now();
    Session session;
    std::unique_ptr<Fleet> fleet =
        setUp(options, "traced", true, &session, nullptr);
    std::printf("service-resubmit set-up: %.3f s\n",
                secondsSince(setup_start));
    auto client = fleet->connect();

    std::vector<double> rtt_us;
    for (int i = 0; i < 200; ++i) {
        const auto start = Clock::now();
        if (!client->ping())
            report.error("service-resubmit: ping unanswered");
        rtt_us.push_back(secondsSince(start) * 1e6);
    }
    report.metric("service.ping_rtt_us", median(rtt_us), "us");

    {
        TracingScope tracing(obs::newTraceId(), "service-resubmit");
        runLoop(options, *client, session,
                primary ? options.seconds : (options.quick ? 0.5 : 3.0),
                true, report);
    }
    client.reset();
    fleet->stop();
    const std::vector<double> queue_ms = fleet->queueWaitsMs();
    verify(options, session, report);
    if (primary)
        reportTracingOverhead(report, session.untracedS, session.tracedS);

    report.metric("service.point_sim_ms", median(session.pointSimMs),
                  "ms");
    report.metric("fleet.cache_hit_frac",
                  static_cast<double>(session.cachedPoints) /
                      static_cast<double>(session.points),
                  "ratio");
    report.metric("fleet.queue_wait_ms_p50", median(queue_ms), "ms");
    report.metric("service.hit_p50_ms", quantile(session.hitMs, 0.5), "ms");
    report.metric("service.hit_p95_ms", quantile(session.hitMs, 0.95),
                  "ms");
    report.metric("service.miss_p50_ms", quantile(session.missMs, 0.5),
                  "ms");
    report.metric("service.miss_p90_ms", quantile(session.missMs, 0.9),
                  "ms");
    printLatencies(session);
}

} // namespace perfbench
