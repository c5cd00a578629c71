#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <cstdlib>
#include <cstring>

#include "common/parse.hh"
#include "runner/grid_scheduler.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace bench
{

namespace
{

bool
parseCount(const char *flag, const char *text, bool allow_zero,
           std::uint64_t &out, std::string &error)
{
    if (!parseU64(text, out)) {
        error = std::string(flag) + ": expected a decimal count, got '" +
                (text ? text : "") + "'";
        return false;
    }
    if (!allow_zero && out == 0) {
        error = std::string(flag) + ": must be greater than zero";
        return false;
    }
    return true;
}

/** Job counts additionally fit `unsigned` -- no silent truncation. */
bool
parseJobs(const char *flag, const char *text, unsigned &out,
          std::string &error)
{
    std::uint64_t value = 0;
    if (!parseCount(flag, text, false, value, error))
        return false;
    if (value > std::numeric_limits<unsigned>::max()) {
        error = std::string(flag) + ": job count out of range";
        return false;
    }
    out = static_cast<unsigned>(value);
    return true;
}

const char *kUsage =
    "options:\n"
    "  --quick             1M measured / 0.5M warm-up instructions\n"
    "  --instructions N    measured instructions per data point\n"
    "  --warmup N          warm-up instructions per data point\n"
    "  --workload NAME     run a single workload; NAME may be a\n"
    "                      recorded trace: trace:<path>[:name]\n"
    "  --jobs N            concurrent simulations (default: all cores)\n"
    "  --out DIR           write DIR/<experiment>.json/.csv\n"
    "                      (default: results)\n"
    "  --no-out            skip result files\n"
    "  --no-progress       suppress progress/ETA lines\n";

} // namespace

std::vector<WorkloadPreset>
selectedPresets(const BenchOptions &opts,
                const std::vector<WorkloadId> &defaults)
{
    if (!opts.onlyWorkload.empty())
        return {presetByName(opts.onlyWorkload)};
    if (defaults.empty())
        return allPresets();
    std::vector<WorkloadPreset> presets;
    for (WorkloadId id : defaults)
        presets.push_back(makePreset(id));
    return presets;
}

void
printBanner(const BenchOptions &opts, const char *experiment,
            const char *paper_summary)
{
    std::printf("=== %s ===\n", experiment);
    std::printf("Paper reference: %s\n", paper_summary);
    std::printf("Run: %llu warmup + %llu measured instructions per "
                "data point, %u jobs\n\n",
                static_cast<unsigned long long>(opts.warmupInstructions),
                static_cast<unsigned long long>(
                    opts.measureInstructions),
                opts.jobs == 0 ? runner::hardwareJobs() : opts.jobs);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

bool
tryParseOptions(int argc, char **argv, BenchOptions &opts,
                std::string &error)
{
    opts = BenchOptions{};
    std::uint64_t value = 0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (std::strcmp(arg, "--quick") == 0) {
            opts.measureInstructions = 1000000;
            opts.warmupInstructions = 500000;
        } else if (std::strcmp(arg, "--instructions") == 0) {
            if (!parseCount("--instructions", next(), false, value,
                            error)) {
                return false;
            }
            opts.measureInstructions = value;
        } else if (std::strcmp(arg, "--warmup") == 0) {
            if (!parseCount("--warmup", next(), true, value, error))
                return false;
            opts.warmupInstructions = value;
        } else if (std::strcmp(arg, "--jobs") == 0) {
            if (!parseJobs("--jobs", next(), opts.jobs, error))
                return false;
        } else if (std::strcmp(arg, "--workload") == 0) {
            const char *name = next();
            if (name == nullptr || *name == '\0') {
                error = "--workload: expected a workload name";
                return false;
            }
            if (isTraceWorkloadSpec(name)) {
                // Syntactic check only; the file itself is opened and
                // validated when the preset is built.
                if (std::strlen(name) <= 6) {
                    error = "--workload: expected trace:<path>[:name]";
                    return false;
                }
            } else {
                bool known = false;
                for (const auto &preset : allPresets())
                    known = known || preset.name == name;
                if (!known) {
                    error =
                        std::string("--workload: unknown workload '") +
                        name +
                        "' (see trace/presets.hh, or use "
                        "trace:<path>[:name])";
                    return false;
                }
            }
            opts.onlyWorkload = name;
        } else if (std::strcmp(arg, "--out") == 0) {
            const char *dir = next();
            if (dir == nullptr || *dir == '\0') {
                error = "--out: expected a directory";
                return false;
            }
            opts.outDir = dir;
        } else if (std::strcmp(arg, "--no-out") == 0) {
            opts.writeFiles = false;
        } else if (std::strcmp(arg, "--no-progress") == 0) {
            opts.showProgress = false;
        } else {
            error = std::string("unknown option '") + arg + "'";
            return false;
        }
    }
    return true;
}

BenchOptions
parseOptions(int argc, char **argv)
{
    BenchOptions opts;
    std::string error;
    if (!tryParseOptions(argc, argv, opts, error)) {
        std::fprintf(stderr, "%s: %s\n%s", argv[0], error.c_str(),
                     kUsage);
        std::exit(2);
    }
    return opts;
}

SimConfig
configFor(const WorkloadPreset &preset, SchemeType type,
          const BenchOptions &opts)
{
    SimConfig config = SimConfig::make(preset, type);
    config.warmupInstructions = opts.warmupInstructions;
    config.measureInstructions = opts.measureInstructions;
    return config;
}

} // namespace bench
} // namespace shotgun
