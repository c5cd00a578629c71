/**
 * @file
 * Span tracing: every grid point gets a lifecycle span tree
 * (queued -> dispatched -> decode -> warmup-or-restore -> measure ->
 * emit) with steady-clock durations, and a trace id that propagates
 * across processes (submit -> coordinator -> worker -> result)
 * through optional protocol-frame fields, so a whole fleet run can
 * be exported as one Chrome trace-event JSON (writeChromeTrace) and
 * opened in Perfetto with per-process/per-worker lanes.
 *
 * Off by default and trajectory-invisible by construction:
 *
 *  - Span{} checks the thread-local TraceContext first. With no
 *    context installed (the default) a Span is two branch tests and
 *    no clock reads; nothing allocates and nothing is recorded.
 *  - Tracing never feeds numbers back into the simulation: spans
 *    observe wall-clock only, simulation state never reads them, so
 *    outputs are bitwise identical with tracing on or off (pinned in
 *    tests/test_obs.cc and smoke.sh).
 *
 * Recording targets compose: a span goes to the context's
 * SpanCollector when one is installed (the fleet worker ships those
 * spans back inside the WorkResult frame) and to the process-wide
 * tracer() when it is enabled (`--trace-out` writes it to the local
 * file). Both at once is the worker-daemon-with-its-own-trace-file
 * case.
 *
 * Timestamps: `ts` is wall-clock (system_clock) microseconds so
 * spans from different processes land on one shared timeline;
 * `dur` is steady-clock so durations cannot jump with NTP. PhaseTimer
 * is the always-on sibling: a steady-clock interval fed into registry
 * counters (sim.phase.*) whether or not tracing is enabled,
 * powering `--fleet-status`'s per-phase breakdown without any
 * tracing machinery.
 */

#ifndef SHOTGUN_OBS_TRACE_HH
#define SHOTGUN_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"

namespace shotgun
{
namespace obs
{

/** One closed span, ready for export or shipment in a frame. */
struct SpanRecord
{
    std::uint64_t traceId = 0; ///< Run-wide id all processes share.
    std::uint64_t id = 0;      ///< Unique within the trace.
    std::uint64_t parent = 0;  ///< Parent span id; 0 = root.
    std::string name;          ///< e.g. "decode", "measure".
    std::string category;      ///< e.g. "sim", "sched", "fleet".
    std::string process;       ///< Lane group: "coord", "serve:w1".
    std::string lane;          ///< Thread lane: "worker-0", "slot-1".
    std::uint64_t startUs = 0; ///< Wall-clock µs since Unix epoch.
    std::uint64_t durUs = 0;   ///< Steady-clock duration, µs.
};

/**
 * Per-point timing breakdown, always collected (two steady-clock
 * reads per phase) and surfaced as optional JSON-only fields in
 * result frames and ResultRow when a trace context asks for it.
 */
struct PointTiming
{
    std::uint64_t decodeUs = 0;
    std::uint64_t warmupUs = 0;
    std::uint64_t restoreUs = 0;
    std::uint64_t measureUs = 0;

    bool any() const
    {
        return decodeUs != 0 || warmupUs != 0 || restoreUs != 0 ||
               measureUs != 0;
    }
};

/** Thread-safe span sink for spans that travel in result frames. */
class SpanCollector
{
  public:
    void add(SpanRecord span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    std::vector<SpanRecord> take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<SpanRecord> out;
        out.swap(spans_);
        return out;
    }

  private:
    std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/**
 * The thread-local tracing context. Null by default -- installing
 * one (ScopedTraceContext) is what turns span recording on for a
 * thread. GridScheduler captures the submitting thread's context
 * into the job and re-installs it around every hooks.simulate call,
 * so the context survives the hop onto pool worker threads.
 */
struct TraceContext
{
    std::uint64_t traceId = 0;
    std::uint64_t parentSpan = 0;   ///< New spans parent here.
    SpanCollector *collector = nullptr; ///< Extra sink (frames).
    PointTiming *timing = nullptr;  ///< Phase totals for this point.
    std::string lane;               ///< Chrome tid lane for spans.
};

/** The calling thread's context; nullptr when tracing is off. */
TraceContext *currentTraceContext();

/** RAII install/restore of the thread's TraceContext. */
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(TraceContext *context);
    ~ScopedTraceContext();

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) =
        delete;

  private:
    TraceContext *previous_;
};

/**
 * Process-wide span store behind `--trace-out`. Disabled by default;
 * enable() stamps the process's default trace id (used for runs
 * that arrive without one) and opens recording.
 */
class Tracer
{
  public:
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Turn recording on; `trace_id` seeds defaultTraceId(). */
    void enable(std::uint64_t trace_id);
    void disable();

    std::uint64_t defaultTraceId() const
    {
        return defaultTraceId_.load(std::memory_order_relaxed);
    }

    /** Name stamped on locally recorded spans ("coord", "serve:w1"). */
    void setProcessName(std::string name);
    std::string processName() const;

    /** Process-unique, never-zero span ids. */
    std::uint64_t nextSpanId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    void record(SpanRecord span);
    void record(std::vector<SpanRecord> spans);

    /** Every span recorded so far (recording continues). */
    std::vector<SpanRecord> snapshot() const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> defaultTraceId_{0};
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::string processName_ = "shotgun";
    std::vector<SpanRecord> spans_;
};

/** The process-wide tracer. */
Tracer &tracer();

/**
 * A run-wide trace id: wall-clock microseconds mixed with the pid,
 * masked to 48 bits so it round-trips any JSON number path exactly.
 */
std::uint64_t newTraceId();

/**
 * RAII span. Inert (no clocks, no allocation) unless the thread has
 * a TraceContext with a collector installed or tracer() is enabled.
 * While open it re-parents the context's new spans to itself, so
 * same-thread nesting builds the tree automatically.
 */
class Span
{
  public:
    Span(const char *name, const char *category);
    ~Span() { end(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close early; idempotent. */
    void end();

    /** This span's id (0 when tracing is off). */
    std::uint64_t id() const { return id_; }

  private:
    bool active_ = false;
    std::uint64_t id_ = 0;
    std::uint64_t savedParent_ = 0;
    const char *name_ = nullptr;
    const char *category_ = nullptr;
    TraceContext *context_ = nullptr;
    std::chrono::steady_clock::time_point startSteady_;
    std::uint64_t startUs_ = 0;
};

/**
 * Always-on phase timer: one steady-clock interval added to a
 * registry counter (and into the context's PointTiming slot when
 * tracing is on). This is what keeps per-phase accounting available
 * -- `--fleet-status`'s breakdown table -- without enabling spans.
 */
class PhaseTimer
{
  public:
    /** `slot` may be null; `counter_us` is a metrics() counter name. */
    PhaseTimer(const char *counter_us, std::uint64_t *slot);
    ~PhaseTimer() { stop(); }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

    /** Close early; idempotent. Returns the elapsed microseconds. */
    std::uint64_t stop();

  private:
    bool running_ = true;
    const char *counterName_;
    std::uint64_t *slot_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t elapsedUs_ = 0;
};

/** Wall-clock µs since the Unix epoch (span `ts` timebase). */
std::uint64_t wallClockUs();

/**
 * A span of this process, outside any TraceContext, that began at
 * wall-clock `start_us` (steady-clock `start`) and ends now: the
 * schedulers' "queued" and "emit" spans.
 */
SpanRecord spanUntilNow(std::uint64_t trace_id, std::uint64_t parent,
                        const char *name, const char *category,
                        const char *lane, std::uint64_t start_us,
                        std::chrono::steady_clock::time_point start);

/**
 * Span <-> JSON, the representation result frames carry: runs of
 * SpanRecord's field list, defined with the frame lists
 * (service/protocol.*). spanFromJson() decodes strictly and throws
 * service::CodecError on a malformed span.
 */
json::Value spanToJson(const SpanRecord &span);
SpanRecord spanFromJson(const json::Value &value);

/**
 * One sample on a Chrome counter track ("ph":"C"): the named series
 * values at one timestamp, rendered by Perfetto as stacked area
 * charts under the owning process. The uarch probe layer emits these
 * (stall-attribution per measure span); anything with a (ts, values)
 * shape can.
 */
struct CounterSample
{
    std::string process;  ///< Same lane-group key spans use.
    std::string name;     ///< Track name, e.g. "uarch stalls".
    std::uint64_t ts = 0; ///< Wall-clock µs (span timebase).
    /** Series name -> value; rendered in the given order. */
    std::vector<std::pair<std::string, std::uint64_t>> values;
};

/**
 * Chrome trace-event JSON ({"traceEvents":[...]}) for Perfetto /
 * chrome://tracing. Distinct `process` strings become pids with
 * process_name metadata; distinct (process, lane) pairs become tids
 * with thread_name metadata; spans are complete ("ph":"X") events
 * carrying trace/span/parent ids in args. Events are sorted by
 * (ts, id) so equal span sets serialize identically. `counters`
 * (optional) append "ph":"C" counter events, sorted by
 * (ts, process, name); the no-counter form emits the exact bytes it
 * always did.
 */
json::Value chromeTraceJson(const std::vector<SpanRecord> &spans);
json::Value chromeTraceJson(const std::vector<SpanRecord> &spans,
                            const std::vector<CounterSample> &counters);

/** Write chromeTraceJson() to `path`; false on I/O failure. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans);
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans,
                      const std::vector<CounterSample> &counters);

} // namespace obs
} // namespace shotgun

#endif // SHOTGUN_OBS_TRACE_HH
