#include "service/protocol.hh"

namespace shotgun
{
namespace service
{

using json::Value;

namespace
{

/** Throw unless `frame` carries this build's protocol version. */
void
checkProtocol(const json::Value &frame)
{
    const Value &protocol = frame.at("protocol");
    if (protocol.asU64() != kProtocolVersion)
        throw CodecError("unsupported protocol version " +
                         protocol.numberToken() + " (this build: " +
                         std::to_string(kProtocolVersion) + ")");
}

// --- optional tracing members (see the header comment: all of these
// are absent unless tracing is active, and peers that predate them
// parse the frames unchanged).

/** Write "trace":{"id":N,"parent":N} when a trace id is set. */
void
writeTraceRef(json::Writer &w, std::uint64_t trace_id,
              std::uint64_t parent_span)
{
    if (trace_id == 0)
        return;
    w.key("trace").beginObject();
    w.key("id").number(trace_id);
    w.key("parent").number(parent_span);
    w.endObject();
}

void
getTraceRef(const Value &frame, std::uint64_t &trace_id,
            std::uint64_t &parent_span)
{
    if (const Value *trace = frame.find("trace")) {
        trace_id = trace->at("id").asU64();
        parent_span = trace->at("parent").asU64();
    }
}

void
writeSpans(json::Writer &w, const std::vector<obs::SpanRecord> &spans)
{
    if (spans.empty())
        return;
    w.key("spans").beginArray();
    for (const obs::SpanRecord &span : spans)
        w.value(obs::spanToJson(span));
    w.endArray();
}

std::vector<obs::SpanRecord>
getSpans(const Value &frame)
{
    std::vector<obs::SpanRecord> spans;
    if (const Value *array = frame.find("spans")) {
        for (const Value &span : array->items())
            spans.push_back(obs::spanFromJson(span));
    }
    return spans;
}

void
writeTiming(json::Writer &w, bool has_timing,
            const obs::PointTiming &timing)
{
    if (!has_timing)
        return;
    w.key("timing").beginObject();
    w.key("decode_us").number(timing.decodeUs);
    w.key("warmup_us").number(timing.warmupUs);
    w.key("restore_us").number(timing.restoreUs);
    w.key("measure_us").number(timing.measureUs);
    w.endObject();
}

/** A frame's line: room for its configs or results up front. */
std::string
frameBuffer(std::size_t payloads)
{
    std::string line;
    line.reserve(256 + 2304 * payloads);
    return line;
}

/** One grid point, as submit and work frames carry it. */
void
writeExperiment(json::Writer &w, const runner::Experiment &exp)
{
    w.beginObject();
    w.key("workload").string(exp.workload);
    w.key("label").string(exp.label);
    writeCanonical(w.key("config"), exp.config);
    w.endObject();
}

/** The members a worker's and a server's result frames share. */
void
writeOutcome(json::Writer &w, const SimResult &result, bool has_delta,
             const StatsDelta &delta,
             const std::vector<obs::SpanRecord> &spans, bool has_timing,
             const obs::PointTiming &timing)
{
    writeCanonical(w.key("result"), result);
    if (has_delta)
        writeCanonical(w.key("delta"), delta);
    writeSpans(w, spans);
    writeTiming(w, has_timing, timing);
}

bool
getTiming(const Value &frame, obs::PointTiming &timing)
{
    const Value *t = frame.find("timing");
    if (t == nullptr)
        return false;
    timing.decodeUs = t->at("decode_us").asU64();
    timing.warmupUs = t->at("warmup_us").asU64();
    timing.restoreUs = t->at("restore_us").asU64();
    timing.measureUs = t->at("measure_us").asU64();
    return true;
}

} // namespace

runner::Experiment
decodeExperiment(const json::Value &v)
{
    runner::Experiment exp;
    exp.workload = v.at("workload").asString();
    exp.label = v.at("label").asString();
    exp.config = decodeSimConfig(v.at("config"));
    return exp;
}

std::string
encodeSubmit(const SubmitRequest &request)
{
    std::string line = frameBuffer(request.grid.size());
    json::Writer w(line);
    w.beginObject();
    w.key("type").string("submit");
    w.key("protocol").number(kProtocolVersion);
    w.key("experiment").string(request.experiment);
    w.key("jobs").number(request.jobs);
    w.key("priority").number(request.priority);
    w.key("grid").beginArray();
    for (const runner::Experiment &exp : request.grid)
        writeExperiment(w, exp);
    w.endArray();
    writeTraceRef(w, request.traceId, request.parentSpan);
    w.endObject();
    return line;
}

SubmitRequest
decodeSubmit(const json::Value &frame)
{
    SubmitRequest request;
    checkProtocol(frame);
    request.experiment = frame.at("experiment").asString();
    request.jobs = frame.at("jobs").asU64();
    if (const Value *priority = frame.find("priority"))
        request.priority = priority->asU64();
    const Value &grid = frame.at("grid");
    if (!grid.isArray())
        throw CodecError("submit: \"grid\" must be an array");
    if (grid.items().empty())
        throw CodecError("submit: empty grid");
    for (const Value &e : grid.items())
        request.grid.push_back(decodeExperiment(e));
    getTraceRef(frame, request.traceId, request.parentSpan);
    return request;
}

std::string
encodeResultEvent(const ResultEvent &event)
{
    std::string line = frameBuffer(1);
    json::Writer w(line);
    w.beginObject();
    w.key("type").string("result");
    w.key("job").number(event.job);
    w.key("index").number(event.index);
    w.key("cached").boolean(event.cached);
    w.key("workload").string(event.workload);
    w.key("label").string(event.label);
    w.key("fingerprint").string(event.fingerprint);
    writeOutcome(w, event.result, event.hasDelta, event.delta,
                 event.spans, event.hasTiming, event.timing);
    w.endObject();
    return line;
}

ResultEvent
decodeResultEvent(const json::Value &frame)
{
    ResultEvent event;
    event.job = frame.at("job").asU64();
    event.index = frame.at("index").asU64();
    event.cached = frame.at("cached").asBool();
    event.workload = frame.at("workload").asString();
    event.label = frame.at("label").asString();
    event.fingerprint = frame.at("fingerprint").asString();
    event.result = decodeSimResult(frame.at("result"));
    if (const Value *delta = frame.find("delta")) {
        event.hasDelta = true;
        event.delta = decodeStatsDelta(*delta);
    }
    event.spans = getSpans(frame);
    event.hasTiming = getTiming(frame, event.timing);
    return event;
}

json::Value
encodeDone(const DoneEvent &event)
{
    Value v = Value::object();
    v.set("type", Value::string("done"));
    v.set("job", Value::number(event.job));
    v.set("status", Value::string(event.status));
    v.set("completed", Value::number(event.completed));
    v.set("cached", Value::number(event.cached));
    if (!event.message.empty())
        v.set("message", Value::string(event.message));
    return v;
}

DoneEvent
decodeDone(const json::Value &frame)
{
    DoneEvent event;
    event.job = frame.at("job").asU64();
    event.status = frame.at("status").asString();
    event.completed = frame.at("completed").asU64();
    event.cached = frame.at("cached").asU64();
    if (const Value *message = frame.find("message"))
        event.message = message->asString();
    return event;
}

json::Value
encodeJobStatus(const JobStatus &status)
{
    Value v = Value::object();
    v.set("id", Value::number(status.id));
    v.set("experiment", Value::string(status.experiment));
    v.set("state", Value::string(status.state));
    v.set("total", Value::number(status.total));
    v.set("completed", Value::number(status.completed));
    v.set("cached", Value::number(status.cached));
    v.set("budget", Value::number(status.budget));
    return v;
}

JobStatus
decodeJobStatus(const json::Value &v)
{
    JobStatus status;
    status.id = v.at("id").asU64();
    status.experiment = v.at("experiment").asString();
    status.state = v.at("state").asString();
    status.total = v.at("total").asU64();
    status.completed = v.at("completed").asU64();
    status.cached = v.at("cached").asU64();
    if (const Value *budget = v.find("budget"))
        status.budget = budget->asU64();
    return status;
}

json::Value
encodeRegister(const RegisterRequest &request)
{
    Value v = Value::object();
    v.set("type", Value::string("register"));
    v.set("protocol", Value::number(kProtocolVersion));
    v.set("name", Value::string(request.name));
    v.set("slots", Value::number(request.slots));
    return v;
}

RegisterRequest
decodeRegister(const json::Value &frame)
{
    checkProtocol(frame);
    RegisterRequest request;
    request.name = frame.at("name").asString();
    request.slots = frame.at("slots").asU64();
    if (request.slots == 0)
        throw CodecError("register: \"slots\" must be >= 1");
    return request;
}

json::Value
encodeHeartbeat(const HeartbeatFrame &heartbeat)
{
    Value cache = Value::object();
    cache.set("hits", Value::number(heartbeat.cacheHits));
    cache.set("misses", Value::number(heartbeat.cacheMisses));
    cache.set("backend_hits", Value::number(heartbeat.backendHits));
    Value checkpoint = Value::object();
    checkpoint.set("hits", Value::number(heartbeat.checkpointHits));
    checkpoint.set("misses",
                   Value::number(heartbeat.checkpointMisses));
    Value phase = Value::object();
    phase.set("decode_us", Value::number(heartbeat.phaseDecodeUs));
    phase.set("warmup_us", Value::number(heartbeat.phaseWarmupUs));
    phase.set("restore_us", Value::number(heartbeat.phaseRestoreUs));
    phase.set("measure_us", Value::number(heartbeat.phaseMeasureUs));
    phase.set("points", Value::number(heartbeat.phasePoints));
    Value v = Value::object();
    v.set("type", Value::string("heartbeat"));
    v.set("worker", Value::number(heartbeat.worker));
    v.set("completed", Value::number(heartbeat.completed));
    v.set("cache", std::move(cache));
    v.set("checkpoint", std::move(checkpoint));
    v.set("phase", std::move(phase));
    // Optional: absent until the first point has been measured, so a
    // freshly started worker heartbeats the exact bytes it always did.
    if (heartbeat.measureP50Us != 0 || heartbeat.measureP95Us != 0 ||
        heartbeat.measureP99Us != 0) {
        Value percentiles = Value::object();
        percentiles.set("measure_p50_us",
                        Value::number(heartbeat.measureP50Us));
        percentiles.set("measure_p95_us",
                        Value::number(heartbeat.measureP95Us));
        percentiles.set("measure_p99_us",
                        Value::number(heartbeat.measureP99Us));
        v.set("percentiles", std::move(percentiles));
    }
    return v;
}

HeartbeatFrame
decodeHeartbeat(const json::Value &frame)
{
    HeartbeatFrame heartbeat;
    heartbeat.worker = frame.at("worker").asU64();
    heartbeat.completed = frame.at("completed").asU64();
    const Value &cache = frame.at("cache");
    heartbeat.cacheHits = cache.at("hits").asU64();
    heartbeat.cacheMisses = cache.at("misses").asU64();
    heartbeat.backendHits = cache.at("backend_hits").asU64();
    // Absent from workers predating warmed-state checkpoints.
    if (const Value *checkpoint = frame.find("checkpoint")) {
        heartbeat.checkpointHits = checkpoint->at("hits").asU64();
        heartbeat.checkpointMisses =
            checkpoint->at("misses").asU64();
    }
    // Absent from workers predating per-phase accounting.
    if (const Value *phase = frame.find("phase")) {
        heartbeat.phaseDecodeUs = phase->at("decode_us").asU64();
        heartbeat.phaseWarmupUs = phase->at("warmup_us").asU64();
        heartbeat.phaseRestoreUs = phase->at("restore_us").asU64();
        heartbeat.phaseMeasureUs = phase->at("measure_us").asU64();
        heartbeat.phasePoints = phase->at("points").asU64();
    }
    // Absent from workers predating measure-latency percentiles.
    if (const Value *pct = frame.find("percentiles")) {
        heartbeat.measureP50Us = pct->at("measure_p50_us").asU64();
        heartbeat.measureP95Us = pct->at("measure_p95_us").asU64();
        heartbeat.measureP99Us = pct->at("measure_p99_us").asU64();
    }
    return heartbeat;
}

std::string
encodeWork(const WorkItem &item)
{
    std::string line = frameBuffer(1);
    json::Writer w(line);
    w.beginObject();
    w.key("type").string("work");
    w.key("task").number(item.task);
    writeExperiment(w.key("experiment"), item.experiment);
    writeTraceRef(w, item.traceId, item.parentSpan);
    w.endObject();
    return line;
}

WorkItem
decodeWork(const json::Value &frame)
{
    WorkItem item;
    item.task = frame.at("task").asU64();
    item.experiment = decodeExperiment(frame.at("experiment"));
    getTraceRef(frame, item.traceId, item.parentSpan);
    return item;
}

std::string
encodeWorkResult(const WorkResult &result)
{
    std::string line = frameBuffer(1);
    json::Writer w(line);
    w.beginObject();
    w.key("type").string("result");
    w.key("task").number(result.task);
    w.key("ok").boolean(result.ok);
    if (!result.ok) {
        w.key("message").string(result.message);
    } else {
        w.key("cached").boolean(result.cached);
        w.key("fingerprint").string(result.fingerprint);
        writeOutcome(w, result.result, result.hasDelta, result.delta,
                     result.spans, result.hasTiming, result.timing);
    }
    w.endObject();
    return line;
}

WorkResult
decodeWorkResult(const json::Value &frame)
{
    WorkResult result;
    result.task = frame.at("task").asU64();
    result.ok = frame.at("ok").asBool();
    if (!result.ok) {
        result.message = frame.at("message").asString();
        return result;
    }
    result.cached = frame.at("cached").asBool();
    result.fingerprint = frame.at("fingerprint").asString();
    result.result = decodeSimResult(frame.at("result"));
    if (const Value *delta = frame.find("delta")) {
        result.hasDelta = true;
        result.delta = decodeStatsDelta(*delta);
    }
    result.spans = getSpans(frame);
    result.hasTiming = getTiming(frame, result.timing);
    return result;
}

json::Value
encodeWorkerStatus(const WorkerStatus &status)
{
    Value v = Value::object();
    v.set("id", Value::number(status.id));
    v.set("name", Value::string(status.name));
    v.set("slots", Value::number(status.slots));
    v.set("inflight", Value::number(status.inflight));
    v.set("completed", Value::number(status.completed));
    v.set("alive", Value::boolean(status.alive));
    v.set("heartbeat_age_ms", Value::number(status.heartbeatAgeMs));
    v.set("throughput", Value::number(status.throughput));
    v.set("cache_hits", Value::number(status.cacheHits));
    v.set("cache_misses", Value::number(status.cacheMisses));
    v.set("backend_hits", Value::number(status.backendHits));
    v.set("checkpoint_hits", Value::number(status.checkpointHits));
    v.set("checkpoint_misses",
          Value::number(status.checkpointMisses));
    Value phase = Value::object();
    phase.set("decode_us", Value::number(status.phaseDecodeUs));
    phase.set("warmup_us", Value::number(status.phaseWarmupUs));
    phase.set("restore_us", Value::number(status.phaseRestoreUs));
    phase.set("measure_us", Value::number(status.phaseMeasureUs));
    phase.set("points", Value::number(status.phasePoints));
    v.set("phase", std::move(phase));
    if (status.measureP50Us != 0 || status.measureP95Us != 0 ||
        status.measureP99Us != 0) {
        Value percentiles = Value::object();
        percentiles.set("measure_p50_us",
                        Value::number(status.measureP50Us));
        percentiles.set("measure_p95_us",
                        Value::number(status.measureP95Us));
        percentiles.set("measure_p99_us",
                        Value::number(status.measureP99Us));
        v.set("percentiles", std::move(percentiles));
    }
    return v;
}

WorkerStatus
decodeWorkerStatus(const json::Value &v)
{
    WorkerStatus status;
    status.id = v.at("id").asU64();
    status.name = v.at("name").asString();
    status.slots = v.at("slots").asU64();
    status.inflight = v.at("inflight").asU64();
    status.completed = v.at("completed").asU64();
    status.alive = v.at("alive").asBool();
    status.heartbeatAgeMs = v.at("heartbeat_age_ms").asU64();
    status.throughput = v.at("throughput").asDouble();
    status.cacheHits = v.at("cache_hits").asU64();
    status.cacheMisses = v.at("cache_misses").asU64();
    status.backendHits = v.at("backend_hits").asU64();
    // Absent from coordinators predating warmed-state checkpoints.
    if (const Value *hits = v.find("checkpoint_hits"))
        status.checkpointHits = hits->asU64();
    if (const Value *misses = v.find("checkpoint_misses"))
        status.checkpointMisses = misses->asU64();
    // Absent from coordinators predating per-phase accounting.
    if (const Value *phase = v.find("phase")) {
        status.phaseDecodeUs = phase->at("decode_us").asU64();
        status.phaseWarmupUs = phase->at("warmup_us").asU64();
        status.phaseRestoreUs = phase->at("restore_us").asU64();
        status.phaseMeasureUs = phase->at("measure_us").asU64();
        status.phasePoints = phase->at("points").asU64();
    }
    // Absent from coordinators predating measure percentiles.
    if (const Value *pct = v.find("percentiles")) {
        status.measureP50Us = pct->at("measure_p50_us").asU64();
        status.measureP95Us = pct->at("measure_p95_us").asU64();
        status.measureP99Us = pct->at("measure_p99_us").asU64();
    }
    return status;
}

bool
validateExperimentTrace(const runner::Experiment &exp,
                        TraceProbeCache &probed, std::string &error)
{
    const std::string &path = exp.config.workload.tracePath;
    if (path.empty())
        return true;
    auto it = probed.find(path);
    if (it == probed.end()) {
        std::string probe_error;
        TraceInfo info;
        if (!probeTraceFile(path, 0, probe_error, &info)) {
            error = "experiment \"" + exp.workload + "/" + exp.label +
                    "\": " + probe_error;
            return false;
        }
        it = probed
                 .emplace(path,
                          std::make_pair(
                              info.instructions,
                              canonicalText(info.preset.program)))
                 .first;
    }
    // A windowed config fast-forwards to window.measureEnd at most
    // (plus any stream skip); the whole region otherwise.
    const SimWindow &window = exp.config.window;
    const std::uint64_t needed =
        window.skipInstructions + exp.config.warmupInstructions +
        (window.enabled() ? window.measureEnd
                          : exp.config.measureInstructions);
    if (it->second.first < needed) {
        error = "experiment \"" + exp.workload + "/" + exp.label +
                "\": trace '" + path + "' holds " +
                std::to_string(it->second.first) +
                " instructions but the run needs " +
                std::to_string(needed) + "; record a longer trace";
        return false;
    }
    if (it->second.second !=
        canonicalText(exp.config.workload.program)) {
        error = "experiment \"" + exp.workload + "/" + exp.label +
                "\": trace '" + path +
                "' on this server was recorded from different "
                "program parameters than the submitted workload "
                "(stale or re-recorded copy?)";
        return false;
    }
    return true;
}

json::Value
makeFrame(const std::string &type)
{
    Value v = Value::object();
    v.set("type", Value::string(type));
    return v;
}

json::Value
makeError(const std::string &message)
{
    Value v = makeFrame("error");
    v.set("message", Value::string(message));
    return v;
}

std::string
frameType(const json::Value &frame)
{
    if (!frame.isObject())
        throw CodecError("frame is not a JSON object");
    const Value *type = frame.find("type");
    if (type == nullptr || !type->isString())
        throw CodecError("frame has no string \"type\" member");
    return type->asString();
}

} // namespace service
} // namespace shotgun
