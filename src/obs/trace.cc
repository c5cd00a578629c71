#include "obs/trace.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

#include "obs/metrics.hh"

#include <unistd.h>

namespace shotgun
{
namespace obs
{

using json::Value;

namespace
{

thread_local TraceContext *t_context = nullptr;

} // namespace

TraceContext *
currentTraceContext()
{
    return t_context;
}

ScopedTraceContext::ScopedTraceContext(TraceContext *context)
    : previous_(t_context)
{
    t_context = context;
}

ScopedTraceContext::~ScopedTraceContext()
{
    t_context = previous_;
}

void
Tracer::enable(std::uint64_t trace_id)
{
    defaultTraceId_.store(trace_id, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
Tracer::setProcessName(std::string name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    processName_ = std::move(name);
}

std::string
Tracer::processName() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return processName_;
}

void
Tracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
Tracer::record(std::vector<SpanRecord> spans)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (SpanRecord &span : spans)
        spans_.push_back(std::move(span));
}

std::vector<SpanRecord>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

std::uint64_t
wallClockUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
newTraceId()
{
    // 48 bits keeps the id exactly representable on every JSON
    // number path (doubles included); microseconds ^ pid is unique
    // enough for distinguishing concurrent runs in one export.
    const std::uint64_t mixed =
        wallClockUs() * 1000003ull ^
        (static_cast<std::uint64_t>(::getpid()) << 32);
    const std::uint64_t id = mixed & ((1ull << 48) - 1);
    return id == 0 ? 1 : id;
}

Span::Span(const char *name, const char *category)
    : name_(name), category_(category), context_(t_context)
{
    if (context_ == nullptr)
        return;
    if (context_->collector == nullptr && !tracer().enabled())
        return;
    active_ = true;
    id_ = tracer().nextSpanId();
    savedParent_ = context_->parentSpan;
    context_->parentSpan = id_;
    startUs_ = wallClockUs();
    startSteady_ = std::chrono::steady_clock::now();
}

void
Span::end()
{
    if (!active_)
        return;
    active_ = false;
    const std::uint64_t dur = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - startSteady_)
            .count());
    context_->parentSpan = savedParent_;

    SpanRecord span;
    span.traceId = context_->traceId != 0
                       ? context_->traceId
                       : tracer().defaultTraceId();
    span.id = id_;
    span.parent = savedParent_;
    span.name = name_;
    span.category = category_;
    span.process = tracer().processName();
    span.lane = context_->lane.empty() ? "main" : context_->lane;
    span.startUs = startUs_;
    span.durUs = dur;

    if (context_->collector != nullptr)
        context_->collector->add(span);
    if (tracer().enabled())
        tracer().record(std::move(span));
}

SpanRecord
spanUntilNow(std::uint64_t trace_id, std::uint64_t parent,
             const char *name, const char *category, const char *lane,
             std::uint64_t start_us,
             std::chrono::steady_clock::time_point start)
{
    SpanRecord span;
    span.traceId = trace_id;
    span.id = tracer().nextSpanId();
    span.parent = parent;
    span.name = name;
    span.category = category;
    span.process = tracer().processName();
    span.lane = lane;
    span.startUs = start_us;
    span.durUs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return span;
}

PhaseTimer::PhaseTimer(const char *counter_us, std::uint64_t *slot)
    : counterName_(counter_us),
      slot_(slot),
      start_(std::chrono::steady_clock::now())
{
}

std::uint64_t
PhaseTimer::stop()
{
    if (!running_)
        return elapsedUs_;
    running_ = false;
    elapsedUs_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    metrics().counter(counterName_)->add(elapsedUs_);
    if (slot_ != nullptr)
        *slot_ += elapsedUs_;
    return elapsedUs_;
}

json::Value
chromeTraceJson(const std::vector<SpanRecord> &spans)
{
    return chromeTraceJson(spans, {});
}

json::Value
chromeTraceJson(const std::vector<SpanRecord> &spans,
                const std::vector<CounterSample> &counters)
{
    // Stable lane assignment: pids by process-name sort order, tids
    // by (process, lane) sort order, so equal span sets always
    // serialize identically regardless of arrival order.
    std::map<std::string, std::uint64_t> pids;
    std::map<std::pair<std::string, std::string>, std::uint64_t> tids;
    for (const SpanRecord &span : spans) {
        pids.emplace(span.process, 0);
        tids.emplace(std::make_pair(span.process, span.lane), 0);
    }
    for (const CounterSample &counter : counters)
        pids.emplace(counter.process, 0);
    std::uint64_t next_pid = 1;
    for (auto &pair : pids)
        pair.second = next_pid++;
    std::uint64_t next_tid = 1;
    for (auto &pair : tids)
        pair.second = next_tid++;

    Value events = Value::array();
    for (const auto &pair : pids) {
        Value meta = Value::object();
        meta.set("name", Value::string("process_name"));
        meta.set("ph", Value::string("M"));
        meta.set("pid", Value::number(pair.second));
        meta.set("tid", Value::number(std::uint64_t{0}));
        Value args = Value::object();
        args.set("name", Value::string(pair.first));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }
    for (const auto &pair : tids) {
        Value meta = Value::object();
        meta.set("name", Value::string("thread_name"));
        meta.set("ph", Value::string("M"));
        meta.set("pid", Value::number(pids.at(pair.first.first)));
        meta.set("tid", Value::number(pair.second));
        Value args = Value::object();
        args.set("name", Value::string(pair.first.second));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }

    std::vector<const SpanRecord *> ordered;
    ordered.reserve(spans.size());
    for (const SpanRecord &span : spans)
        ordered.push_back(&span);
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  if (a->startUs != b->startUs)
                      return a->startUs < b->startUs;
                  return a->id < b->id;
              });

    for (const SpanRecord *span : ordered) {
        Value event = Value::object();
        event.set("name", Value::string(span->name));
        event.set("cat", Value::string(span->category));
        event.set("ph", Value::string("X"));
        event.set("pid", Value::number(pids.at(span->process)));
        event.set("tid", Value::number(tids.at(std::make_pair(
                             span->process, span->lane))));
        event.set("ts", Value::number(span->startUs));
        event.set("dur", Value::number(span->durUs));
        Value args = Value::object();
        args.set("trace_id", Value::number(span->traceId));
        args.set("span_id", Value::number(span->id));
        args.set("parent_id", Value::number(span->parent));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }

    // Counter tracks last, in (ts, process, name) order -- equal
    // sample sets always serialize identically.
    std::vector<const CounterSample *> counter_order;
    counter_order.reserve(counters.size());
    for (const CounterSample &counter : counters)
        counter_order.push_back(&counter);
    std::sort(counter_order.begin(), counter_order.end(),
              [](const CounterSample *a, const CounterSample *b) {
                  if (a->ts != b->ts)
                      return a->ts < b->ts;
                  if (a->process != b->process)
                      return a->process < b->process;
                  return a->name < b->name;
              });
    for (const CounterSample *counter : counter_order) {
        Value event = Value::object();
        event.set("name", Value::string(counter->name));
        event.set("ph", Value::string("C"));
        event.set("pid", Value::number(pids.at(counter->process)));
        event.set("tid", Value::number(std::uint64_t{0}));
        event.set("ts", Value::number(counter->ts));
        Value args = Value::object();
        for (const auto &pair : counter->values)
            args.set(pair.first, Value::number(pair.second));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }

    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Value::string("ms"));
    return doc;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans)
{
    return writeChromeTrace(path, spans, {});
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans,
                 const std::vector<CounterSample> &counters)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << chromeTraceJson(spans, counters).dump() << "\n";
    return out.good();
}

} // namespace obs
} // namespace shotgun
