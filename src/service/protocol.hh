/**
 * @file
 * The shotgun-serve wire protocol: newline-delimited JSON frames over
 * a stream socket (TCP or Unix). Every frame is one line, one JSON
 * object, with a "type" member. See src/service/README.md for the
 * full grammar and an example session.
 *
 * Client -> server:
 *   {"type":"submit","protocol":4,"experiment":...,"jobs":N,
 *    "grid":[{"workload":...,"label":...,"config":{...}},...]}
 *   {"type":"status"}          {"type":"cancel","job":N}
 *   {"type":"ping"}            {"type":"shutdown"}
 *
 * Server -> client:
 *   {"type":"accepted","job":N,"total":N,"fingerprints":[...]}
 *   {"type":"result","job":N,"index":N,"cached":b,
 *    "workload":...,"label":...,"fingerprint":...,"result":{...}}
 *   {"type":"done","job":N,"status":"ok|cancelled|error",
 *    "completed":N,"cached":N[,"message":...]}
 *   {"type":"status","server":{...},"jobs":[...]}
 *   {"type":"pong"}  {"type":"bye"}  {"type":"error","message":...}
 *
 * Protocol 2 (windowed simulation): every config carries a "window"
 * member ({"measure_start","measure_end"}, both 0 when disabled). A
 * windowed config is an ordinary grid point: its `result` is that
 * window's own SimResult (runSimulation()), and windows are stitched
 * in-process only (src/window/).
 *
 * Protocol 3 (fleet): `submit` gains an optional "priority" (a
 * server's fair-share weight for the job, a coordinator's strict
 * priority; default 1), and the coordinator<->worker frames below
 * join the grammar. A worker holds one *control* connection
 * (register, then periodic heartbeats) and one *work* connection
 * per slot (attach, then a steal -> work -> result loop). See
 * src/fleet/README.md for the full fleet protocol spec.
 *
 * Worker -> coordinator (control):
 *   {"type":"register","protocol":4,"name":...,"slots":N}
 *     -> {"type":"ack","worker":N}
 *   {"type":"heartbeat","worker":N,
 *    "cache":{"hits":N,"misses":N,"backend_hits":N}}
 *     -> {"type":"ack"}
 *
 * Worker -> coordinator (one per slot):
 *   {"type":"attach","worker":N}            -> {"type":"ack"}
 *   {"type":"steal","worker":N}             -> (parked until work)
 *     <- {"type":"work","task":N,"experiment":{...}}
 *   {"type":"result","task":N,"ok":b,"cached":b,
 *    "result":{...}[,"message":...]}
 *                                           -> (next steal)
 *
 * Protocol 4: the window lost its stream-skip member (every
 * config's canonical bytes, hence every fingerprint, changed), and
 * the heartbeat's "completed" and the worker result's "fingerprint",
 * which no peer read, went in the same bump.
 *
 * A coordinator answers the ordinary client `status` frame with an
 * additional "fleet" member: per-worker rows (WorkerStatus)
 * plus queue depths and cache counters.
 *
 * Tracing fields (all OPTIONAL -- they bumped no protocol version,
 * and peers without them interoperate unchanged): `submit` and `work`
 * may carry {"trace":{"id":N,"parent":N}} propagating a run-wide
 * trace id and parent span id (submit -> coordinator -> worker);
 * `result` frames (both the worker->coordinator and server->client
 * kinds) may carry "spans" (an array of obs::SpanRecord objects
 * recorded while the point simulated) and "timing" (the per-point
 * phase breakdown in microseconds), which is how one fleet run
 * assembles a single cross-process trace; `heartbeat` and worker
 * status rows may carry "phase" totals (the always-on per-phase
 * counters behind `--fleet-status`'s breakdown table). See
 * src/obs/README.md.
 *
 * Each structured frame below is a struct with a field list, the
 * same kind of list configs and results have (common/wire.hh), and
 * so are the values frames carry: a grid point, a span, a point's
 * timing, the heartbeat's counter groups and the status rows.
 * encodeFrame() streams a frame into its line, "type" first, with no
 * tree; decodeFrame() consumes "type" and runs the strict reader
 * (service/codec.hh), so an unknown or missing member, a kind
 * mismatch or a broken rule is a CodecError that names its path, and
 * a malformed frame is an `error` reply, never a dead daemon. Each
 * frame's layout is written down once, in its list. Optional members
 * follow common/wire.hh's one rule: the written-when-set ones (trace,
 * spans, timing, percentiles, message) and the always-written
 * ones older peers may omit (priority, budget, checkpoint, phase,
 * checkpoint_hits/misses) both decode to their defaults when absent.
 * Trivial frames (ping/pong/bye/attach/steal/ack/...) are built
 * inline where used with makeFrame().
 */

#ifndef SHOTGUN_SERVICE_PROTOCOL_HH
#define SHOTGUN_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "obs/trace.hh"
#include "runner/experiment.hh"
#include "service/codec.hh"

namespace shotgun
{
namespace runner
{

/** One grid point, as submit and work frames carry it. */
template <typename V>
void
fields(V &v, Experiment &e)
{
    v("workload", e.workload);
    v("label", e.label);
    v("config", e.config);
}

} // namespace runner

namespace obs
{

/** The span objects result frames carry (spanToJson's form). */
template <typename V>
void
fields(V &v, SpanRecord &s)
{
    v("trace", s.traceId);
    v("id", s.id);
    v("parent", s.parent);
    v("name", s.name);
    v("cat", s.category);
    v("proc", s.process);
    v("lane", s.lane);
    v("ts", s.startUs);
    v("dur", s.durUs);
}

template <typename V>
void
fields(V &v, PointTiming &t)
{
    v("decode_us", t.decodeUs);
    v("warmup_us", t.warmupUs);
    v("restore_us", t.restoreUs);
    v("measure_us", t.measureUs);
}

} // namespace obs

namespace service
{

/** Bumped on any incompatible frame-layout change. */
constexpr std::uint64_t kProtocolVersion = 4;

/**
 * The "protocol" member of submit and register frames: written as
 * this build's version; a reader refuses any other before it reads
 * the members after it.
 */
template <typename V>
void
protocolMember(V &v)
{
    std::uint64_t protocol = kProtocolVersion;
    v("protocol", protocol);
    if (protocol != kProtocolVersion)
        throw CodecError("unsupported protocol version " +
                         std::to_string(protocol) + " (this build: " +
                         std::to_string(kProtocolVersion) + ")");
}

/**
 * The optional "trace" member ({"id":N,"parent":N}, written when the
 * id is set): a view of a frame's run-wide trace id and the span new
 * spans parent to.
 */
struct TraceRef
{
    std::uint64_t &id;
    std::uint64_t &parent;
};

template <typename V>
void
fields(V &v, TraceRef &t)
{
    v("id", t.id);
    v("parent", t.parent);
}

/** A grid submission: the wire form of a runner::ExperimentSet. */
struct SubmitRequest
{
    static constexpr const char *kType = "submit";

    std::string experiment; ///< Sweep name (result-sink header).

    /** Worker threads for this job; 0 = server default; the server
     * additionally clamps to its --jobs cap. */
    std::uint64_t jobs = 0;

    /**
     * Fair-share weight against other admitted jobs: a priority-3
     * job is dispatched three points per priority-1 job's one (see
     * runner/grid_scheduler.hh). 0 is clamped to 1 server-side.
     */
    std::uint64_t priority = 1;

    std::vector<runner::Experiment> grid;

    /**
     * Optional tracing context ("trace" member, absent when 0): the
     * run-wide trace id every process's spans share, and the
     * client-side root span new server spans parent to.
     */
    std::uint64_t traceId = 0;
    std::uint64_t parentSpan = 0;
};

template <typename V>
void
fields(V &v, SubmitRequest &r)
{
    protocolMember(v);
    v("experiment", r.experiment);
    v("jobs", r.jobs);
    v.optional("priority", r.priority, true);
    v("grid", r.grid);
    TraceRef trace{r.traceId, r.parentSpan};
    v.optional("trace", trace, r.traceId != 0);
}

inline const char *
brokenRule(const SubmitRequest &r)
{
    return r.grid.empty() ? "empty grid" : nullptr;
}

/** One streamed result, index-aligned with the submitted grid. */
struct ResultEvent
{
    static constexpr const char *kType = "result";

    std::uint64_t job = 0;
    std::uint64_t index = 0;
    bool cached = false; ///< Served from the fingerprint cache.
    std::string workload;
    std::string label;
    std::string fingerprint;
    SimResult result;

    /**
     * Optional tracing payload ("spans"/"timing" members, absent
     * when the point was untraced): the spans recorded while this
     * point simulated and its per-phase timing breakdown.
     */
    std::vector<obs::SpanRecord> spans;
    bool hasTiming = false;
    obs::PointTiming timing;
};

template <typename V>
void
fields(V &v, ResultEvent &e)
{
    v("job", e.job);
    v("index", e.index);
    v("cached", e.cached);
    v("workload", e.workload);
    v("label", e.label);
    v("fingerprint", e.fingerprint);
    v("result", e.result);
    v.optional("spans", e.spans, !e.spans.empty());
    v.optional("timing", e.timing, e.hasTiming);
}

/** Terminal job states reported in `done` frames. */
struct DoneEvent
{
    static constexpr const char *kType = "done";

    std::uint64_t job = 0;
    std::string status; ///< "ok", "cancelled" or "error".
    std::uint64_t completed = 0;
    std::uint64_t cached = 0;
    std::string message; ///< Failure detail for "error".
};

template <typename V>
void
fields(V &v, DoneEvent &d)
{
    v("job", d.job);
    v("status", d.status);
    v("completed", d.completed);
    v("cached", d.cached);
    v.optional("message", d.message, !d.message.empty());
}

/** One job's row in a `status` frame. */
struct JobStatus
{
    std::uint64_t id = 0;
    std::string experiment;
    std::string state; ///< queued/running/ok/cancelled/error.
    std::uint64_t total = 0;
    std::uint64_t completed = 0;
    std::uint64_t cached = 0;

    /** Scheduler worker budget; absent in pre-0.5 frames. */
    std::uint64_t budget = 0;
};

template <typename V>
void
fields(V &v, JobStatus &s)
{
    v("id", s.id);
    v("experiment", s.experiment);
    v("state", s.state);
    v("total", s.total);
    v("completed", s.completed);
    v("cached", s.cached);
    v.optional("budget", s.budget, true);
}

// ---------------------------------------------------- fleet frames

/**
 * Worker enrollment, first frame on a worker's control connection.
 * Carries the protocol version (checked like submit: a mismatched
 * worker is rejected, not silently mis-fed).
 */
struct RegisterRequest
{
    static constexpr const char *kType = "register";

    std::string name;         ///< Operator-facing worker name.
    std::uint64_t slots = 1;  ///< Concurrent simulation slots.
};

template <typename V>
void
fields(V &v, RegisterRequest &r)
{
    protocolMember(v);
    v("name", r.name);
    v("slots", r.slots);
}

inline const char *
brokenRule(const RegisterRequest &r)
{
    return r.slots == 0 ? "\"slots\" must be >= 1" : nullptr;
}

/** A worker's result-cache counters (backendHits: disk answers). */
struct CacheCounts
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t backendHits = 0;
};

template <typename V>
void
fields(V &v, CacheCounts &c)
{
    v("hits", c.hits);
    v("misses", c.misses);
    v("backend_hits", c.backendHits);
}

/**
 * A worker's warmed-state checkpoint store (sim/checkpoint.hh): hits
 * are restored warmups, misses are warmups simulated.
 */
struct CheckpointCounts
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

template <typename V>
void
fields(V &v, CheckpointCounts &c)
{
    v("hits", c.hits);
    v("misses", c.misses);
}

/**
 * The "phase" group: always-on per-phase wall-clock totals from a
 * worker's sim.phase.* registry counters, in microseconds, and the
 * points it finished -- what `--fleet-status` renders as the
 * per-phase breakdown.
 */
struct PhaseTotals
{
    std::uint64_t decodeUs = 0;
    std::uint64_t warmupUs = 0;
    std::uint64_t restoreUs = 0;
    std::uint64_t measureUs = 0;
    std::uint64_t points = 0;
};

template <typename V>
void
fields(V &v, PhaseTotals &p)
{
    v("decode_us", p.decodeUs);
    v("warmup_us", p.warmupUs);
    v("restore_us", p.restoreUs);
    v("measure_us", p.measureUs);
    v("points", p.points);
}

/**
 * The "percentiles" group: deterministic per-point measure-phase
 * latency percentiles from a worker's sim.phase.measure_us_hist
 * histogram (obs::histogramQuantile; bucket-resolution). Written
 * once the worker has finished a point, so a fresh worker heartbeats
 * the bytes it always did.
 */
struct MeasurePercentiles
{
    std::uint64_t p50Us = 0;
    std::uint64_t p95Us = 0;
    std::uint64_t p99Us = 0;

    bool any() const { return p50Us != 0 || p95Us != 0 || p99Us != 0; }
};

template <typename V>
void
fields(V &v, MeasurePercentiles &p)
{
    v("measure_p50_us", p.p50Us);
    v("measure_p95_us", p.p95Us);
    v("measure_p99_us", p.p99Us);
}

/** Periodic liveness proof plus the worker's local counters. */
struct HeartbeatFrame
{
    static constexpr const char *kType = "heartbeat";

    std::uint64_t worker = 0;
    CacheCounts cache;
    CheckpointCounts checkpoint;
    PhaseTotals phase;
    MeasurePercentiles percentiles;
};

template <typename V>
void
fields(V &v, HeartbeatFrame &h)
{
    v("worker", h.worker);
    v("cache", h.cache);
    v.optional("checkpoint", h.checkpoint, true);
    v.optional("phase", h.phase, true);
    v.optional("percentiles", h.percentiles, h.percentiles.any());
}

/** One grid point handed to a stealing worker slot. */
struct WorkItem
{
    static constexpr const char *kType = "work";

    std::uint64_t task = 0; ///< Coordinator-assigned task id.
    runner::Experiment experiment;

    /**
     * Optional tracing context relayed from the owning submit
     * ("trace" member, absent when 0): the worker records this
     * point's spans under it and ships them back in the result.
     */
    std::uint64_t traceId = 0;
    std::uint64_t parentSpan = 0;
};

template <typename V>
void
fields(V &v, WorkItem &w)
{
    v("task", w.task);
    v("experiment", w.experiment);
    TraceRef trace{w.traceId, w.parentSpan};
    v.optional("trace", trace, w.traceId != 0);
}

/**
 * A slot's finished point. `ok` false reports a failed simulation
 * (bad trace on this worker, ...) with the detail in `message`; the
 * coordinator fails the owning job, mirroring how a local simulate
 * exception fails a SimServer job.
 */
struct WorkResult
{
    static constexpr const char *kType = "result";

    std::uint64_t task = 0;
    bool ok = true;
    std::string message; ///< Failure detail when !ok.
    bool cached = false; ///< Served from the worker's cache.
    SimResult result;

    /**
     * Optional tracing payload ("spans"/"timing", absent when the
     * task was untraced): the worker-side spans the coordinator
     * merges into the fleet trace and relays to the client.
     */
    std::vector<obs::SpanRecord> spans;
    bool hasTiming = false;
    obs::PointTiming timing;
};

/** A failed result carries its message and nothing else. */
template <typename V>
void
fields(V &v, WorkResult &r)
{
    v("task", r.task);
    v("ok", r.ok);
    if (!r.ok) {
        v("message", r.message);
        return;
    }
    v("cached", r.cached);
    v("result", r.result);
    v.optional("spans", r.spans, !r.spans.empty());
    v.optional("timing", r.timing, r.hasTiming);
}

/** One worker's row in a coordinator `status` frame's fleet member. */
struct WorkerStatus
{
    std::uint64_t id = 0;
    std::string name;
    std::uint64_t slots = 0;
    std::uint64_t inflight = 0;  ///< Points dispatched, unreturned.
    std::uint64_t completed = 0; ///< Points returned since register.
    bool alive = true;           ///< False once declared dead.
    std::uint64_t heartbeatAgeMs = 0; ///< Since the last heartbeat.

    /** Points returned per second since registration. */
    double throughput = 0.0;

    // Relayed from the worker's last heartbeat.
    CacheCounts cache;
    CheckpointCounts checkpoint;
    PhaseTotals phase;
    MeasurePercentiles percentiles;
};

/** The cache and checkpoint counters are flat in a row. */
template <typename V>
void
fields(V &v, WorkerStatus &s)
{
    v("id", s.id);
    v("name", s.name);
    v("slots", s.slots);
    v("inflight", s.inflight);
    v("completed", s.completed);
    v("alive", s.alive);
    v("heartbeat_age_ms", s.heartbeatAgeMs);
    v("throughput", s.throughput);
    v("cache_hits", s.cache.hits);
    v("cache_misses", s.cache.misses);
    v("backend_hits", s.cache.backendHits);
    v.optional("checkpoint_hits", s.checkpoint.hits, true);
    v.optional("checkpoint_misses", s.checkpoint.misses, true);
    v.optional("phase", s.phase, true);
    v.optional("percentiles", s.percentiles, s.percentiles.any());
}

/** A frame's line: {"type":F::kType, then F's list}. */
template <typename F>
std::string
encodeFrame(const F &frame)
{
    std::string line;
    line.reserve(2560); // Room for one config or result.
    json::Writer w(line);
    w.beginObject();
    w.key("type").string(F::kType);
    StreamVisitor v(w);
    visitFields(v, frame);
    w.endObject();
    return line;
}

/** Strictly decode a parsed frame of F's type. */
template <typename F>
F
decodeFrame(const json::Value &frame)
{
    F f;
    FieldReader::decodeFrame(frame, f, F::kType);
    return f;
}

// -------------------------------------------------- shared helpers

/**
 * Per-path probe memo for validateExperimentTrace: path ->
 * (instruction count, canonical program-params encoding).
 */
using TraceProbeCache =
    std::map<std::string, std::pair<std::uint64_t, std::string>>;

/**
 * Validate that a trace-backed experiment can run *here*: readable,
 * untruncated v2 trace, long enough for the requested (possibly
 * windowed) run, recorded from the same program parameters the
 * config describes. One probe per distinct path via `probed`.
 * Returns false with the detail in `error`; never throws or
 * fatal()s -- callers sit on daemon threads. Non-trace experiments
 * trivially pass.
 */
bool validateExperimentTrace(const runner::Experiment &exp,
                             TraceProbeCache &probed,
                             std::string &error);

/** Convenience: {"type":t} or {"type":"error","message":m}. */
json::Value makeFrame(const std::string &type);
json::Value makeError(const std::string &message);

/**
 * Frame "type" member, or throws CodecError when absent/non-object.
 */
std::string frameType(const json::Value &frame);

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_PROTOCOL_HH
