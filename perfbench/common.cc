#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/random.hh"
#include "service/codec.hh"

namespace perfbench
{

using namespace shotgun;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = Entry{value, unit};
}

void
Report::check(const std::string &name, std::uint64_t got,
              std::uint64_t want)
{
    const bool ok = got == want;
    checksOk_ = checksOk_ && ok;
    checks_.push_back(name + ": " + std::to_string(got) +
                      (ok ? " == " : " != ") + std::to_string(want) +
                      (ok ? "  ok" : "  FAILED"));
}

void
Report::error(const std::string &what)
{
    errors_.push_back(what);
}

void
Report::print(const std::string &workload, bool traced) const
{
    std::printf("host: %s\n", hostStamp().c_str());
    std::printf("workload: %s (%s)\n", workload.c_str(),
                traced ? "traced, per-layer metrics"
                       : "untraced, end-to-end metrics");
    for (const std::string &line : checks_)
        std::printf("check %s\n", line.c_str());
    for (const std::string &line : errors_)
        std::printf("error %s\n", line.c_str());
    const double failed_frac =
        attempted_ == 0 ? 1.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_);
    std::printf("failed_frac %.6f ratio (%llu of %llu)\n", failed_frac,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    for (const auto &[name, entry] : metrics_)
        std::printf("metric %-36s %14.6f %s\n", name.c_str(), entry.value,
                    entry.unit.c_str());

    Value metrics = Value::object();
    for (const auto &[name, entry] : metrics_) {
        Value m = Value::object();
        m.set("value", Value::number(entry.value));
        m.set("unit", Value::string(entry.unit));
        metrics.set(name, std::move(m));
    }
    const bool correct =
        checksOk_ && errors_.empty() && failed_ == 0 && attempted_ > 0;
    Value out = Value::object();
    out.set("correct", Value::boolean(correct));
    out.set("attempted",
            Value::number(std::max<std::uint64_t>(attempted_, 1)));
    out.set("failed", Value::number(failed_));
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

unsigned
hostJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::string
hostStamp()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    Value v = Value::object();
    v.set("nproc", Value::number(std::uint64_t{hostJobs()}));
    v.set("cpu", Value::string(cpu));
    v.set("compiler", Value::string(PERFBENCH_COMPILER));
    v.set("build_type", Value::string(PERFBENCH_BUILD_TYPE));
    return v.dump();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace
{

bool
writeAll(int fd, const std::string &data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + done, data.size() - done);
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

Value
errorValue(const std::string &what)
{
    Value v = Value::object();
    v.set("error", Value::string(what));
    return v;
}

} // namespace

Value
runInChild(const std::function<Value()> &body)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return errorValue("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return errorValue("fork failed");
    }
    if (pid == 0) {
        ::close(fds[0]);
        std::string out;
        try {
            out = body().dump();
        } catch (const std::exception &e) {
            out = errorValue(e.what()).dump();
        }
        const bool ok = writeAll(fds[1], out);
        ::close(fds[1]);
        std::fflush(nullptr);
        ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return errorValue("child process failed (status " +
                          std::to_string(status) + ")");
    try {
        return Value::parse(text);
    } catch (const std::exception &e) {
        return errorValue(std::string("bad child output: ") + e.what());
    }
}

double
medianSetupSeconds(unsigned trials,
                   const std::function<void(unsigned)> &setup)
{
    std::vector<double> samples;
    for (unsigned i = 0; i < trials; ++i) {
        const Value v = runInChild([&]() {
            const auto start = Clock::now();
            setup(i);
            Value out = Value::object();
            out.set("seconds", Value::number(secondsSince(start)));
            return out;
        });
        if (const Value *s = v.find("seconds"))
            samples.push_back(s->asDouble());
        else
            throw std::runtime_error("set-up trial failed: " +
                                     v.at("error").asString());
    }
    return median(samples);
}

Lengths
gridLengths(const Options &options)
{
    return options.quick ? Lengths{20000, 40000} : Lengths{500000, 1000000};
}

std::string
digest(const Value &encoded)
{
    return service::fingerprintHex(json::fnv1a64(encoded.dump()));
}

std::string
digestPath(const Options &options, const std::string &stem)
{
    return options.dataDir + "/" + stem +
           (options.quick ? ".quick.digest" : ".digest");
}

std::map<std::string, std::string>
readDigests(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, value;
        if (fields >> key >> value)
            out[key] = value;
    }
    return out;
}

void
writeDigests(const std::string &path, const std::string &header,
             const std::map<std::string, std::string> &digests)
{
    std::ofstream out(path);
    out << "# " << header << "\n"
        << "# Re-record only in a change that deliberately alters "
           "simulated results (see README.md).\n";
    for (const auto &[key, value] : digests)
        out << key << " " << value << "\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
    std::printf("wrote %zu digests to %s\n", digests.size(), path.c_str());
}

GridTally
timeGrids(const Options &options, const GridWorkload &workload,
          Report &report)
{
    runInChild([&]() { return workload.run(false); });

    GridTally tally;
    std::vector<double> seconds, minstr_per_s, grids_per_s;
    double peak_rss = peakRssMb();
    const auto loop_start = Clock::now();
    while (seconds.size() < 3 || secondsSince(loop_start) < options.seconds) {
        const Value grid = runInChild([&]() { return workload.run(false); });
        report.attempted(workload.points);
        if (const Value *err = grid.find("error")) {
            report.failed(workload.points);
            report.error(workload.name + " grid failed: " + err->asString());
            break;
        }
        report.failed(workload.check(grid, report));
        const double s = grid.at("seconds").asDouble();
        seconds.push_back(s);
        minstr_per_s.push_back(
            static_cast<double>(grid.at("instructions").asU64()) / s / 1e6);
        grids_per_s.push_back(1.0 / s);
        peak_rss = std::max(peak_rss, grid.at("rss_mb").asDouble());
        ++tally.grids;
        tally.restores += grid.at("restores").asU64();
        tally.captures += grid.at("captures").asU64();
        tally.decodes += grid.at("decodes").asU64();
        if (tally.first.isNull())
            tally.first = grid;
    }
    if (tally.grids == 0)
        return tally;
    report.metric("grid_s", median(seconds), "s");
    report.metric("delivered_minstr_per_s", median(minstr_per_s),
                  "Minstr/s");
    report.metric("submits_per_s", median(grids_per_s), "1/s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    std::printf("%s: %llu cold grids of %llu points\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(tally.grids),
                static_cast<unsigned long long>(workload.points));
    return tally;
}

Value
traceGrids(const Options &options, const GridWorkload &workload,
           Report &report, bool primary)
{
    std::vector<double> untraced, traced;
    Value last;
    const auto loop_start = Clock::now();
    do {
        if (primary) {
            const Value plain =
                runInChild([&]() { return workload.run(false); });
            if (const Value *err = plain.find("error"))
                throw std::runtime_error(workload.name + " grid failed: " +
                                         err->asString());
            untraced.push_back(plain.at("seconds").asDouble());
        }
        Value grid = runInChild([&]() { return workload.run(true); });
        if (const Value *err = grid.find("error"))
            throw std::runtime_error("traced " + workload.name +
                                     " grid failed: " + err->asString());
        report.attempted(workload.points);
        report.failed(workload.check(grid, report));
        traced.push_back(grid.at("seconds").asDouble());
        const auto spans = spansFromJson(grid.at("spans"));
        collectedSpans().insert(collectedSpans().end(), spans.begin(),
                                spans.end());
        last = std::move(grid);
    } while (primary && secondsSince(loop_start) < options.seconds);
    if (primary)
        reportTracingOverhead(report, untraced, traced);
    return last;
}

void
reportTracingOverhead(Report &report, const std::vector<double> &untraced,
                      const std::vector<double> &traced)
{
    report.metric("obs.tracing_overhead_pct",
                  100.0 * (median(traced) / median(untraced) - 1.0), "%");
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t state = mix64(seed ^ 0x9e3779b97f4a7c15ull);
    for (std::size_t i = n; i > 1; --i) {
        state = mix64(state + i);
        std::swap(order[i - 1], order[state % i]);
    }
    return order;
}

double
paperBtbMpki(WorkloadId id)
{
    switch (id) {
      case WorkloadId::Nutch: return 2.5;
      case WorkloadId::Streaming: return 14.5;
      case WorkloadId::Apache: return 23.7;
      case WorkloadId::Zeus: return 14.6;
      case WorkloadId::Oracle: return 45.1;
      case WorkloadId::DB2: return 40.2;
      default: return 0.0;
    }
}

void
reportAccuracy(Report &report, const std::vector<AccuracyPoint> &points)
{
    double err_sum = 0.0, log_speedup = 0.0;
    for (const AccuracyPoint &p : points) {
        const double target = paperBtbMpki(p.id);
        err_sum += std::fabs(p.baseline.btbMPKI - target) / target;
        log_speedup += std::log(speedup(p.shotgun, p.baseline));
    }
    const double n = static_cast<double>(points.size());
    const double geomean = std::exp(log_speedup / n);
    report.metric("btb_mpki_err_pct", 100.0 * err_sum / n, "%");
    report.metric("speedup_err_pct",
                  100.0 * std::fabs(geomean - kPaperShotgunSpeedup) /
                      kPaperShotgunSpeedup,
                  "%");
    std::printf("accuracy: shotgun geomean speedup %.4f (paper %.2f) "
                "over %zu workload(s)\n",
                geomean, kPaperShotgunSpeedup, points.size());
}

Value
spansToJson(const std::vector<obs::SpanRecord> &spans)
{
    Value array = Value::array();
    for (const obs::SpanRecord &span : spans)
        array.push(obs::spanToJson(span));
    return array;
}

std::vector<obs::SpanRecord>
spansFromJson(const Value &array)
{
    std::vector<obs::SpanRecord> spans;
    for (const Value &v : array.items())
        spans.push_back(obs::spanFromJson(v));
    return spans;
}

std::vector<obs::SpanRecord> &
collectedSpans()
{
    static std::vector<obs::SpanRecord> spans;
    return spans;
}

TracingScope::TracingScope(std::uint64_t trace_id, const char *lane)
    : scope_(&context_)
{
    obs::tracer().enable(trace_id);
    context_.traceId = trace_id;
    context_.lane = lane;
}

TracingScope::~TracingScope() { obs::tracer().disable(); }

} // namespace perfbench
