/**
 * @file
 * The traced run's workload-independent pieces: micro-probes that time
 * one layer's classes directly on a recorded zeus stream (so generator
 * cost is excluded), and the grid-layer totals both grid workloads
 * feed.
 */

#include <algorithm>

#include "branch/tage.hh"
#include "btb/conventional_btb.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/predecoder.hh"
#include "core/footprint_recorder.hh"
#include "core/shotgun_btb.hh"
#include "cpu/core.hh"
#include "prefetch/factory.hh"
#include "service/codec.hh"
#include "trace/generator.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace shotgun;

namespace
{

std::vector<BBRecord>
recordStream(const Program &program, std::uint64_t seed,
             std::size_t records)
{
    TraceGenerator gen(program, seed);
    std::vector<BBRecord> out(records);
    for (BBRecord &rec : out)
        gen.next(rec);
    return out;
}

/** Median over three repetitions of `body`, which returns ns per op. */
template <class Body>
double
medianOfThree(Body body)
{
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i)
        samples.push_back(body());
    return median(samples);
}

/** Nanoseconds per op for `ops` operations that began at `start`. */
double
nsPer(Clock::time_point start, std::uint64_t ops)
{
    return secondsSince(start) * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(ops, 1));
}

BTBEntry
entryOf(const BBRecord &rec)
{
    BTBEntry entry;
    entry.bbStart = rec.startAddr;
    entry.target = rec.target;
    entry.numInstrs = rec.numInstrs;
    entry.type = rec.type;
    return entry;
}

/** A representative result for the codec probe (no simulation run). */
SimResult
sampleResult()
{
    SimResult r;
    r.workload = "oracle";
    r.scheme = "shotgun";
    r.instructions = 5000000;
    r.cycles = 6123457;
    r.ipc = 0.8165;
    r.btbMPKI = 44.7;
    r.l1iMPKI = 31.2;
    r.mispredictsPerKI = 3.9;
    r.frontEndStallCycles = 2345678;
    r.prefetchAccuracy = 0.61;
    r.avgL1DFillCycles = 42.5;
    r.prefetchesIssued = 812345;
    r.schemeStorageBits = 1234567;
    return r;
}

} // namespace

void
runProbes(const Options &options, Report &report)
{
    const std::size_t records = options.quick ? 20000 : 300000;

    {
        obs::Span span("probe.sim.program_build", "bench");
        std::vector<double> ms;
        for (int i = 0; i < (options.quick ? 1 : 3); ++i) {
            const auto start = Clock::now();
            for (const WorkloadPreset &preset : allPresets())
                Program program(preset.program);
            ms.push_back(secondsSince(start) * 1e3);
        }
        report.metric("sim.program_build_ms", median(ms), "ms");
    }

    {
        obs::Span span("probe.trace.generator", "bench");
        report.metric("trace.gen_ns_per_instr", medianOfThree([&]() {
                          std::uint64_t instrs = 0;
                          double ns = 0.0;
                          for (const WorkloadPreset &preset :
                               allPresets()) {
                              TraceGenerator gen(programFor(preset), 7);
                              BBRecord rec;
                              const auto start = Clock::now();
                              std::uint64_t n = 0;
                              for (std::size_t i = 0; i < records; ++i) {
                                  gen.next(rec);
                                  n += rec.numInstrs;
                              }
                              ns += secondsSince(start) * 1e9;
                              instrs += n;
                          }
                          return ns / static_cast<double>(instrs);
                      }),
                      "ns");
    }

    const WorkloadPreset zeus = makePreset(WorkloadId::Zeus);
    const Program &program = programFor(zeus);
    const std::vector<BBRecord> stream = recordStream(program, 11, records);

    {
        obs::Span span("probe.branch.tage", "bench");
        report.metric("branch.tage_ns_per_branch", medianOfThree([&]() {
                          TagePredictor tage;
                          std::uint64_t branches = 0;
                          const auto start = Clock::now();
                          for (const BBRecord &rec : stream) {
                              if (rec.type != BranchType::Conditional)
                                  continue;
                              tage.predict(rec.branchPC());
                              tage.update(rec.branchPC(), rec.taken);
                              ++branches;
                          }
                          return nsPer(start, branches);
                      }),
                      "ns");
    }

    {
        obs::Span span("probe.btb.conventional", "bench");
        report.metric("btb.conv_ns_per_lookup", medianOfThree([&]() {
                          ConventionalBTB btb(2048);
                          const auto start = Clock::now();
                          for (const BBRecord &rec : stream) {
                              if (!btb.lookup(rec.startAddr))
                                  btb.insert(entryOf(rec));
                          }
                          return nsPer(start, stream.size());
                      }),
                      "ns");
    }

    {
        obs::Span span("probe.core.shotgun_btb", "bench");
        report.metric("core.shotgun_btb_ns_per_lookup", medianOfThree([&]() {
                          ShotgunBTB btbs{ShotgunBTBConfig{}};
                          const auto start = Clock::now();
                          for (const BBRecord &rec : stream) {
                              if (!btbs.lookup(rec.startAddr).hit())
                                  btbs.insertByType(entryOf(rec));
                          }
                          return nsPer(start, stream.size());
                      }),
                      "ns");
        report.metric("core.footprint_ns_per_retire", medianOfThree([&]() {
                          ShotgunBTB btbs{ShotgunBTBConfig{}};
                          FootprintRecorder recorder(btbs);
                          const auto start = Clock::now();
                          for (const BBRecord &rec : stream)
                              recorder.retire(rec);
                          return nsPer(start, stream.size());
                      }),
                      "ns");
    }

    {
        obs::Span span("probe.cache", "bench");
        report.metric("cache.l1i_ns_per_access", medianOfThree([&]() {
                          Cache l1i(HierarchyParams{}.l1i);
                          std::uint64_t accesses = 0;
                          const auto start = Clock::now();
                          for (const BBRecord &rec : stream) {
                              for (Addr b = rec.firstBlock();
                                   b <= rec.lastBlock(); ++b) {
                                  if (!l1i.access(b))
                                      l1i.fill(b, false);
                                  ++accesses;
                              }
                          }
                          return nsPer(start, accesses);
                      }),
                      "ns");
        report.metric("cache.predecode_ns_per_block", medianOfThree([&]() {
                          Predecoder predecoder(program);
                          const auto start = Clock::now();
                          for (const BBRecord &rec : stream)
                              predecoder.decodeBlock(rec.firstBlock());
                          return nsPer(start, stream.size());
                      }),
                      "ns");
    }

    {
        // A warmed shotgun Core, cloned the way runSimulation parks a
        // checkpoint after every warmup.
        obs::Span span("probe.sim.checkpoint_capture", "bench");
        TraceGenerator gen(program, 1);
        SchemeConfig scheme;
        scheme.type = SchemeType::Shotgun;
        Core core(program, gen, CoreParams{}, HierarchyParams{}, scheme);
        core.run(options.quick ? 20000 : 200000);
        std::vector<double> ms;
        for (int i = 0; i < 5; ++i) {
            const auto start = Clock::now();
            const Core clone(core, nullptr);
            ms.push_back(secondsSince(start) * 1e3);
        }
        report.metric("sim.checkpoint_capture_ms", median(ms), "ms");
    }

    {
        obs::Span span("probe.service.codec", "bench");
        SimConfig config =
            SimConfig::make(makePreset(WorkloadId::Oracle),
                            SchemeType::Shotgun);
        const SimResult result = sampleResult();
        const std::uint64_t n = options.quick ? 200 : 2000;
        report.metric("service.codec_us_per_point", medianOfThree([&]() {
                          const auto start = Clock::now();
                          for (std::uint64_t i = 0; i < n; ++i) {
                              service::decodeSimConfig(Value::parse(
                                  service::encodeSimConfig(config).dump()));
                              service::decodeSimResult(Value::parse(
                                  service::encodeSimResult(result).dump()));
                          }
                          return nsPer(start, n) / 1e3;
                      }),
                      "us");
        report.metric("service.fingerprint_us_per_point",
                      medianOfThree([&]() {
                          const auto start = Clock::now();
                          for (std::uint64_t i = 0; i < n; ++i) {
                              config.traceSeed = i;
                              service::configFingerprint(config);
                          }
                          return nsPer(start, n) / 1e3;
                      }),
                      "us");
    }
}

void
LayerTotals::addGrid(const Value &child, unsigned jobs)
{
    for (const obs::SpanRecord &span : spansFromJson(child.at("spans"))) {
        const double s = static_cast<double>(span.durUs) / 1e6;
        if (span.category == "sim") {
            if (span.name == "decode")
                decodeS += s;
            else if (span.name == "warmup")
                warmupS += s;
            else if (span.name == "restore")
                restoreS += s;
            else if (span.name == "measure")
                measureS += s;
        } else if (span.category == "sched") {
            if (span.name == "dispatched")
                busyS += s;
            else if (span.name == "queued")
                queueWaitS.push_back(s);
        }
    }
    capacityS += child.at("seconds").asDouble() * jobs;
    checkpointHits += child.at("restores").asU64();
    checkpointMisses += child.at("captures").asU64();
    checkpointMb = std::max(
        checkpointMb,
        static_cast<double>(child.at("checkpoint_bytes").asU64()) / 1048576.0);
}

void
LayerTotals::report(Report &report) const
{
    report.metric("sim.decode_s", decodeS, "s");
    report.metric("sim.warmup_s", warmupS, "s");
    report.metric("sim.restore_s", restoreS, "s");
    report.metric("sim.measure_s", measureS, "s");
    report.metric("runner.busy_frac", busyS / capacityS, "ratio");
    report.metric("runner.queue_wait_s_p50", quantile(queueWaitS, 0.5), "s");
    report.metric("runner.queue_wait_s_max", quantile(queueWaitS, 1.0), "s");
    report.metric("runner.cohort_wait_s", cohortWaitS, "s");
    report.metric("sim.checkpoint_hits", static_cast<double>(checkpointHits),
                  "count");
    report.metric("sim.checkpoint_misses",
                  static_cast<double>(checkpointMisses), "count");
    report.metric("sim.checkpoint_mb", checkpointMb, "MB");
}

} // namespace perfbench
