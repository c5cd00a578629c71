/**
 * @file
 * Tests for the src/obs/ observability layer: registry
 * counter/gauge/histogram semantics (including under concurrent
 * writers), span nesting and ordering through the thread-local
 * TraceContext, the span JSON round-trip, a golden Chrome
 * trace-event export, and -- the load-bearing property -- that a
 * grid run with tracing enabled is bitwise-identical to the same
 * grid run untraced. Also covers the uarch probe layer's
 * Space-Saving sketch (exact regime, deterministic eviction) and
 * that probed grids are deterministic under parallel execution.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/memo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "obs/uarch.hh"
#include "prefetch/factory.hh"
#include "runner/experiment.hh"
#include "runner/result_sink.hh"
#include "sim/simulator.hh"
#include "trace/presets.hh"

namespace shotgun
{
namespace
{

using runner::ExperimentRunner;
using runner::ExperimentSet;
using runner::ResultSink;
using runner::RunnerOptions;

// ------------------------------------------------------------------ Registry

TEST(MetricsRegistryTest, CounterGetOrCreateReturnsStablePointer)
{
    obs::Registry registry;
    obs::Counter *a = registry.counter("a.counter");
    obs::Counter *b = registry.counter("a.counter");
    EXPECT_EQ(a, b);
    a->add();
    a->add(41);
    EXPECT_EQ(b->value(), 42u);
}

TEST(MetricsRegistryTest, CounterConcurrentWritersLoseNothing)
{
    obs::Registry registry;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry]() {
            // Get-or-create races with the other writers on purpose:
            // registration is mutexed, updates are atomic.
            obs::Counter *counter =
                registry.counter("race.counter");
            for (std::uint64_t i = 0; i < kAddsPerThread; ++i)
                counter->add();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(registry.counter("race.counter")->value(),
              kThreads * kAddsPerThread);
}

TEST(MetricsRegistryTest, GaugeSetOverwritesAndAddAdjusts)
{
    obs::Registry registry;
    obs::Gauge *gauge = registry.gauge("a.gauge");
    gauge->set(100);
    EXPECT_EQ(gauge->value(), 100);
    gauge->add(-30);
    EXPECT_EQ(gauge->value(), 70);
    gauge->set(-5);
    EXPECT_EQ(gauge->value(), -5);
}

TEST(MetricsRegistryTest, GaugeConcurrentAddsLoseNothing)
{
    obs::Registry registry;
    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry]() {
            obs::Gauge *gauge = registry.gauge("race.gauge");
            for (int i = 0; i < kAddsPerThread; ++i)
                gauge->add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(registry.gauge("race.gauge")->value(),
              static_cast<std::int64_t>(kThreads) * kAddsPerThread);
}

TEST(MetricsRegistryTest, HistogramBoundsAreInclusiveUpperBounds)
{
    obs::Registry registry;
    obs::Histogram *hist =
        registry.histogram("a.hist", {10, 100});
    hist->record(0);   // bucket 0
    hist->record(10);  // bucket 0 (inclusive upper bound)
    hist->record(11);  // bucket 1
    hist->record(100); // bucket 1
    hist->record(101); // overflow bucket
    EXPECT_EQ(hist->bucketCount(0), 2u);
    EXPECT_EQ(hist->bucketCount(1), 2u);
    EXPECT_EQ(hist->bucketCount(2), 1u);
    EXPECT_EQ(hist->count(), 5u);
    EXPECT_EQ(hist->sum(), 222u);
}

TEST(MetricsRegistryTest, HistogramBoundsApplyOnFirstRegistrationOnly)
{
    obs::Registry registry;
    obs::Histogram *first =
        registry.histogram("a.hist", {10, 100});
    obs::Histogram *second = registry.histogram("a.hist", {7});
    EXPECT_EQ(first, second);
    EXPECT_EQ(second->bounds().size(), 2u);
}

TEST(MetricsRegistryTest, HistogramConcurrentRecordsStayConsistent)
{
    obs::Registry registry;
    obs::Histogram *hist =
        registry.histogram("race.hist", {4, 16, 64});
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([hist]() {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                hist->record(i % 100);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(hist->count(), kThreads * kPerThread);
    std::uint64_t buckets = 0;
    for (std::size_t i = 0; i <= hist->bounds().size(); ++i)
        buckets += hist->bucketCount(i);
    EXPECT_EQ(buckets, hist->count());
    // Each thread records 0..99 fifty times: sum = 50 * 4950.
    EXPECT_EQ(hist->sum(), kThreads * 50u * 4950u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName)
{
    obs::Registry registry;
    registry.counter("c.z")->add(3);
    registry.gauge("a.g")->set(-7);
    registry.histogram("b.h", {10})->record(5);
    const std::vector<obs::MetricSample> samples =
        registry.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "a.g");
    EXPECT_EQ(samples[0].kind, obs::MetricSample::Kind::Gauge);
    EXPECT_EQ(samples[0].value, -7);
    EXPECT_EQ(samples[1].name, "b.h");
    EXPECT_EQ(samples[1].kind, obs::MetricSample::Kind::Histogram);
    EXPECT_EQ(samples[1].count, 1u);
    ASSERT_EQ(samples[1].buckets.size(), 2u);
    EXPECT_EQ(samples[1].buckets[0], 1u);
    EXPECT_EQ(samples[2].name, "c.z");
    EXPECT_EQ(samples[2].kind, obs::MetricSample::Kind::Counter);
    EXPECT_EQ(samples[2].value, 3);
}

TEST(MetricsRegistryTest, CacheStatsJsonKeepsLegacyFieldOrder)
{
    MemoCacheStats stats;
    stats.entries = 3;
    stats.bytes = 4096;
    stats.budgetBytes = 8192;
    stats.hits = 5;
    stats.misses = 2;
    stats.evictions = 1;
    stats.backendHits = 4;
    // The status frames' cache objects: field names and order must
    // match the hand-assembled objects byte-for-byte (smoke.sh pins
    // the rendered frames).
    EXPECT_EQ(obs::cacheStatsJson(stats, true).dump(),
              "{\"entries\":3,\"bytes\":4096,\"budget_bytes\":8192,"
              "\"hits\":5,\"misses\":2,\"evictions\":1,"
              "\"backend_hits\":4}");
    EXPECT_EQ(obs::cacheStatsJson(stats, false).dump(),
              "{\"entries\":3,\"bytes\":4096,\"budget_bytes\":8192,"
              "\"hits\":5,\"misses\":2,\"evictions\":1}");
}

// --------------------------------------------------------------------- Spans

TEST(SpanTest, InertWithoutContext)
{
    ASSERT_EQ(obs::currentTraceContext(), nullptr);
    ASSERT_FALSE(obs::tracer().enabled());
    const std::size_t before = obs::tracer().snapshot().size();
    {
        obs::Span span("noop", "test");
        EXPECT_EQ(span.id(), 0u);
    }
    EXPECT_EQ(obs::tracer().snapshot().size(), before);
}

TEST(SpanTest, NestingBuildsParentLinksAndEndOrder)
{
    obs::tracer().setProcessName("test-proc");
    obs::SpanCollector collector;
    obs::TraceContext context;
    context.traceId = 7;
    context.collector = &collector;
    context.lane = "laneA";
    obs::ScopedTraceContext scope(&context);

    std::uint64_t outer_id = 0;
    std::uint64_t inner_id = 0;
    {
        obs::Span outer("outer", "test");
        outer_id = outer.id();
        ASSERT_NE(outer_id, 0u);
        // While open, the span re-parents the context so same-thread
        // children nest under it automatically.
        EXPECT_EQ(context.parentSpan, outer_id);
        {
            obs::Span inner("inner", "test");
            inner_id = inner.id();
            EXPECT_EQ(context.parentSpan, inner_id);
        }
        EXPECT_EQ(context.parentSpan, outer_id);
    }
    EXPECT_EQ(context.parentSpan, 0u);

    const std::vector<obs::SpanRecord> spans = collector.take();
    ASSERT_EQ(spans.size(), 2u);
    // Spans record when they close: inner first, outer second.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].id, inner_id);
    EXPECT_EQ(spans[0].parent, outer_id);
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].id, outer_id);
    EXPECT_EQ(spans[1].parent, 0u);
    for (const obs::SpanRecord &span : spans) {
        EXPECT_EQ(span.traceId, 7u);
        EXPECT_EQ(span.category, "test");
        EXPECT_EQ(span.process, "test-proc");
        EXPECT_EQ(span.lane, "laneA");
    }
    // take() drained the collector.
    EXPECT_TRUE(collector.take().empty());
}

TEST(SpanTest, ParentSpanFromContextAnchorsRoots)
{
    obs::SpanCollector collector;
    obs::TraceContext context;
    context.traceId = 9;
    context.parentSpan = 1234; // e.g. the client's root span id
    context.collector = &collector;
    obs::ScopedTraceContext scope(&context);
    { obs::Span span("child", "test"); }
    const std::vector<obs::SpanRecord> spans = collector.take();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].parent, 1234u);
    EXPECT_EQ(spans[0].lane, "main"); // empty lane defaults to main
}

TEST(SpanTest, ScopedContextRestoresPrevious)
{
    obs::TraceContext outer_ctx;
    outer_ctx.traceId = 1;
    obs::ScopedTraceContext outer(&outer_ctx);
    EXPECT_EQ(obs::currentTraceContext(), &outer_ctx);
    {
        obs::TraceContext inner_ctx;
        inner_ctx.traceId = 2;
        obs::ScopedTraceContext inner(&inner_ctx);
        EXPECT_EQ(obs::currentTraceContext(), &inner_ctx);
    }
    EXPECT_EQ(obs::currentTraceContext(), &outer_ctx);
}

TEST(SpanTest, EnabledTracerRecordsWithDefaultTraceId)
{
    const std::size_t before = obs::tracer().snapshot().size();
    obs::tracer().enable(55);
    {
        obs::TraceContext context; // traceId 0: defaultTraceId wins
        obs::ScopedTraceContext scope(&context);
        obs::Span span("traced", "test");
    }
    obs::tracer().disable();
    const std::vector<obs::SpanRecord> spans =
        obs::tracer().snapshot();
    ASSERT_EQ(spans.size(), before + 1);
    EXPECT_EQ(spans.back().name, "traced");
    EXPECT_EQ(spans.back().traceId, 55u);
}

TEST(SpanTest, PhaseTimerFeedsCounterAndSlot)
{
    const std::uint64_t before =
        obs::metrics().counter("test.obs.phase_us")->value();
    std::uint64_t slot = 0;
    obs::PhaseTimer timer("test.obs.phase_us", &slot);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t elapsed = timer.stop();
    EXPECT_GE(elapsed, 2000u);
    EXPECT_EQ(slot, elapsed);
    EXPECT_EQ(obs::metrics().counter("test.obs.phase_us")->value(),
              before + elapsed);
    // stop() is idempotent: no double counting.
    EXPECT_EQ(timer.stop(), elapsed);
    EXPECT_EQ(slot, elapsed);
    EXPECT_EQ(obs::metrics().counter("test.obs.phase_us")->value(),
              before + elapsed);
}

TEST(SpanTest, JsonRoundTrip)
{
    obs::SpanRecord span;
    span.traceId = 0xABCDEF;
    span.id = 17;
    span.parent = 16;
    span.name = "measure";
    span.category = "sim";
    span.process = "serve:w1";
    span.lane = "slot-3";
    span.startUs = 1754700000000000ull;
    span.durUs = 12345;
    const obs::SpanRecord back =
        obs::spanFromJson(json::Value::parse(
            obs::spanToJson(span).dump()));
    EXPECT_EQ(back.traceId, span.traceId);
    EXPECT_EQ(back.id, span.id);
    EXPECT_EQ(back.parent, span.parent);
    EXPECT_EQ(back.name, span.name);
    EXPECT_EQ(back.category, span.category);
    EXPECT_EQ(back.process, span.process);
    EXPECT_EQ(back.lane, span.lane);
    EXPECT_EQ(back.startUs, span.startUs);
    EXPECT_EQ(back.durUs, span.durUs);
}

// -------------------------------------------------------- Chrome trace JSON

TEST(ChromeTraceTest, GoldenExportForSmallFleetGrid)
{
    // A hand-built three-span fleet timeline: the client's submit
    // span, the coordinator's queue span under it, and a worker's
    // measure span under that -- two processes, three lanes, one
    // trace id. Fixed timestamps make the export byte-stable.
    std::vector<obs::SpanRecord> spans;
    obs::SpanRecord submit;
    submit.traceId = 42;
    submit.id = 1;
    submit.parent = 0;
    submit.name = "submit";
    submit.category = "client";
    submit.process = "coord";
    submit.lane = "main";
    submit.startUs = 1000;
    submit.durUs = 500;
    obs::SpanRecord queued = submit;
    queued.id = 2;
    queued.parent = 1;
    queued.name = "queued";
    queued.category = "fleet";
    queued.lane = "queue";
    queued.startUs = 1100;
    queued.durUs = 50;
    obs::SpanRecord measure = submit;
    measure.id = 3;
    measure.parent = 2;
    measure.name = "measure";
    measure.category = "sim";
    measure.process = "w1";
    measure.lane = "slot-0";
    measure.startUs = 1200;
    measure.durUs = 300;
    // Deliberately out of timestamp order: the export sorts.
    spans.push_back(measure);
    spans.push_back(submit);
    spans.push_back(queued);

    EXPECT_EQ(
        obs::chromeTraceJson(spans).dump(),
        "{\"traceEvents\":["
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":0,\"args\":{\"name\":\"coord\"}},"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
        "\"tid\":0,\"args\":{\"name\":\"w1\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":1,\"args\":{\"name\":\"main\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":2,\"args\":{\"name\":\"queue\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,"
        "\"tid\":3,\"args\":{\"name\":\"slot-0\"}},"
        "{\"name\":\"submit\",\"cat\":\"client\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":1,\"ts\":1000,\"dur\":500,"
        "\"args\":{\"trace_id\":42,\"span_id\":1,\"parent_id\":0}},"
        "{\"name\":\"queued\",\"cat\":\"fleet\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":2,\"ts\":1100,\"dur\":50,"
        "\"args\":{\"trace_id\":42,\"span_id\":2,\"parent_id\":1}},"
        "{\"name\":\"measure\",\"cat\":\"sim\",\"ph\":\"X\","
        "\"pid\":2,\"tid\":3,\"ts\":1200,\"dur\":300,"
        "\"args\":{\"trace_id\":42,\"span_id\":3,\"parent_id\":2}}"
        "],\"displayTimeUnit\":\"ms\"}");
}

// ------------------------------------------------ Space-Saving sketch

TEST(SpaceSavingSketchTest, ExactRegimeCountsAreExact)
{
    obs::SpaceSavingSketch sketch(4);
    for (int i = 0; i < 5; ++i)
        sketch.record(0x100);
    for (int i = 0; i < 3; ++i)
        sketch.record(0x200);
    sketch.record(0x300);
    EXPECT_EQ(sketch.size(), 3u);
    const std::vector<obs::SiteCount> sites = sketch.sites();
    ASSERT_EQ(sites.size(), 3u);
    // Canonical order: count desc, pc asc; no eviction => error 0.
    EXPECT_EQ(sites[0].pc, 0x100u);
    EXPECT_EQ(sites[0].count, 5u);
    EXPECT_EQ(sites[0].error, 0u);
    EXPECT_EQ(sites[1].pc, 0x200u);
    EXPECT_EQ(sites[1].count, 3u);
    EXPECT_EQ(sites[1].error, 0u);
    EXPECT_EQ(sites[2].pc, 0x300u);
    EXPECT_EQ(sites[2].count, 1u);
    EXPECT_EQ(sites[2].error, 0u);
}

TEST(SpaceSavingSketchTest, EvictionIsDeterministicAndBoundsError)
{
    // Two independently-built sketches fed the same stream must emit
    // identical tables even past capacity -- eviction picks the
    // minimum count with the smallest pc as tie-break, never
    // anything iteration-order dependent.
    obs::SpaceSavingSketch a(2);
    obs::SpaceSavingSketch b(2);
    const Addr stream[] = {0x10, 0x10, 0x10, 0x20, 0x30,
                           0x30, 0x40, 0x10, 0x40};
    for (Addr pc : stream) {
        a.record(pc);
        b.record(pc);
    }
    EXPECT_EQ(a.sites(), b.sites());
    EXPECT_EQ(a.size(), 2u);
    // Hand-traced expected table: 0x20 is evicted by 0x30 (count
    // 1+1, error 1), then the min-count tie at 3 between 0x10 and
    // 0x30 resolves to the smaller pc, so 0x40 inherits 0x10's
    // count; 0x10 re-enters over 0x30 the same way.
    const std::vector<obs::SiteCount> sites = a.sites();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_EQ(sites[0].pc, 0x40u);
    EXPECT_EQ(sites[0].count, 5u);
    EXPECT_EQ(sites[0].error, 3u);
    EXPECT_EQ(sites[1].pc, 0x10u);
    EXPECT_EQ(sites[1].count, 4u);
    EXPECT_EQ(sites[1].error, 3u);
    for (const obs::SiteCount &site : sites) {
        // Space-Saving guarantee: estimate is an upper bound and the
        // true count is within [count - error, count]. True counts
        // here: 0x40 seen 2 (within [2, 5]), 0x10 seen 4 (exact).
        EXPECT_GE(site.count, site.error);
    }

    a.clear();
    EXPECT_EQ(a.size(), 0u);
    EXPECT_TRUE(a.sites().empty());
}

TEST(SpaceSavingSketchTest, MergedWindowTablesMatchMonolithic)
{
    // Exact regime: recording a stream in two halves into two
    // sketches and merging their tables equals one sketch over the
    // whole stream -- the property window stitching leans on.
    obs::SpaceSavingSketch whole;
    obs::SpaceSavingSketch first;
    obs::SpaceSavingSketch second;
    for (int i = 0; i < 200; ++i) {
        const Addr pc = 0x1000 + (i * i) % 37 * 64;
        whole.record(pc);
        (i < 100 ? first : second).record(pc);
    }
    obs::UarchBreakdown merged;
    merged.l1iMissSites = first.sites();
    obs::UarchBreakdown delta;
    delta.l1iMissSites = second.sites();
    obs::mergeUarch(merged, delta);
    EXPECT_EQ(merged.l1iMissSites, whole.sites());
}

// ------------------------------------- Probed-grid parallel determinism

TEST(UarchProbeTest, ProbedGridIsDeterministicUnderParallelRun)
{
    // The probe layer holds no shared state, so a probed grid run
    // across 4 worker threads must produce results (including every
    // sketch table) bitwise identical to the serial run.
    const WorkloadPreset preset = makePreset(WorkloadId::Nutch);
    auto run = [&preset](unsigned jobs) {
        ExperimentSet set;
        for (const SchemeType scheme :
             {SchemeType::Baseline, SchemeType::FDIP,
              SchemeType::Boomerang, SchemeType::Shotgun}) {
            SimConfig config = SimConfig::make(preset, scheme);
            config.warmupInstructions = 2000;
            config.measureInstructions = 8000;
            set.add(preset, schemeTypeName(scheme),
                    std::move(config));
        }
        set.enableUarchProbes();
        RunnerOptions options;
        options.jobs = jobs;
        return ExperimentRunner(options).run(set);
    };
    const std::vector<SimResult> serial = run(1);
    const std::vector<SimResult> parallel = run(4);
    ASSERT_EQ(serial.size(), parallel.size());
    bool any_sites = false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].uarch.enabled);
        EXPECT_TRUE(serial[i].uarch.conserves(serial[i].cycles));
        // SimResult::operator== covers every field, uarch included.
        EXPECT_TRUE(serial[i] == parallel[i])
            << "probed grid diverged under jobs=4 at point " << i;
        any_sites = any_sites ||
                    !serial[i].uarch.l1iMissSites.empty();
    }
    // The comparison exercised real sketch content.
    EXPECT_TRUE(any_sites);
}

// -------------------------------------------- Tracing-invisibility contract

/** Run the grid and serialize its sink output (JSON + CSV). */
std::pair<std::string, std::string>
runGridSerialized(bool traced,
                  std::vector<obs::SpanRecord> *spans_out)
{
    const WorkloadPreset preset = makePreset(WorkloadId::Nutch);
    ExperimentSet set;
    for (const SchemeType scheme :
         {SchemeType::Baseline, SchemeType::Shotgun}) {
        SimConfig config = SimConfig::make(preset, scheme);
        config.warmupInstructions = 500;
        config.measureInstructions = 2000;
        set.add(preset,
                scheme == SchemeType::Baseline ? "base" : "shotgun",
                std::move(config));
    }

    obs::TraceContext context;
    std::unique_ptr<obs::ScopedTraceContext> scope;
    std::vector<obs::PointTiming> timings(set.size());
    std::vector<obs::SpanRecord> spans;
    RunnerOptions options;
    options.jobs = 2;
    if (traced) {
        // A nonzero trace id on the submitting thread's context is
        // what opts the whole grid into tracing; per-point spans
        // come back through onObservation in strict grid order.
        context.traceId = 4242;
        scope.reset(new obs::ScopedTraceContext(&context));
        options.onObservation =
            [&timings, &spans](
                std::size_t index, const obs::PointTiming &timing,
                const std::vector<obs::SpanRecord> &point_spans) {
                timings[index] = timing;
                spans.insert(spans.end(), point_spans.begin(),
                             point_spans.end());
            };
    }

    ResultSink sink("obs_identity");
    ExperimentRunner runner(options);
    runner.run(set, &sink);
    scope.reset();
    if (spans_out != nullptr)
        *spans_out = std::move(spans);
    if (traced) {
        // The traced run really measured something.
        bool any = false;
        for (const obs::PointTiming &t : timings)
            any = any || t.any();
        EXPECT_TRUE(any);
    }

    std::ostringstream json_os;
    std::ostringstream csv_os;
    sink.writeJson(json_os);
    sink.writeCsv(csv_os);
    return {json_os.str(), csv_os.str()};
}

TEST(TracingInvisibilityTest, ResultsAreBitwiseIdenticalOnOrOff)
{
    const auto untraced = runGridSerialized(false, nullptr);
    std::vector<obs::SpanRecord> spans;
    const auto traced = runGridSerialized(true, &spans);

    // Tracing observed the run...
    ASSERT_FALSE(spans.empty());
    bool saw_sim_phase = false;
    for (const obs::SpanRecord &span : spans) {
        EXPECT_EQ(span.traceId, 4242u);
        saw_sim_phase = saw_sim_phase || span.category == "sim";
    }
    EXPECT_TRUE(saw_sim_phase);

    // ...without perturbing a single output byte.
    EXPECT_EQ(untraced.first, traced.first);
    EXPECT_EQ(untraced.second, traced.second);
}

} // namespace
} // namespace shotgun
