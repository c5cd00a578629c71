/**
 * @file
 * The shotgun-serve wire protocol: newline-delimited JSON frames over
 * a stream socket (TCP or Unix). Every frame is one line, one JSON
 * object, with a "type" member. See src/service/README.md for the
 * full grammar and an example session.
 *
 * Client -> server:
 *   {"type":"submit","protocol":3,"experiment":...,"jobs":N,
 *    "grid":[{"workload":...,"label":...,"config":{...}},...]}
 *   {"type":"status"}          {"type":"cancel","job":N}
 *   {"type":"ping"}            {"type":"shutdown"}
 *
 * Server -> client:
 *   {"type":"accepted","job":N,"total":N,"fingerprints":[...]}
 *   {"type":"result","job":N,"index":N,"cached":b,
 *    "workload":...,"label":...,"fingerprint":...,"result":{...}
 *    [,"delta":{...}]}
 *   {"type":"done","job":N,"status":"ok|cancelled|error",
 *    "completed":N,"cached":N[,"message":...]}
 *   {"type":"status","server":{...},"jobs":[...]}
 *   {"type":"pong"}  {"type":"bye"}  {"type":"error","message":...}
 *
 * Protocol 2 (windowed simulation): every config carries a "window"
 * member ({"skip_instructions","measure_start","measure_end"}, all 0
 * when disabled), and the `result` frame of a windowed grid point
 * additionally carries "delta" -- the window's raw counters
 * (sim/stats_delta.hh) -- so clients stitch windows from exact
 * integers rather than derived doubles.
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
 *   {"type":"register","protocol":3,"name":...,"slots":N}
 *     -> {"type":"ack","worker":N}
 *   {"type":"heartbeat","worker":N,"completed":N,
 *    "cache":{"hits":N,"misses":N,"backend_hits":N}}
 *     -> {"type":"ack"}
 *
 * Worker -> coordinator (one per slot):
 *   {"type":"attach","worker":N}            -> {"type":"ack"}
 *   {"type":"steal","worker":N}             -> (parked until work)
 *     <- {"type":"work","task":N,"experiment":{...}}
 *   {"type":"result","task":N,"ok":b,"cached":b,
 *    "fingerprint":...,"result":{...}[,"delta":{...}]
 *    [,"message":...]}                      -> (next steal)
 *
 * A coordinator answers the ordinary client `status` frame with an
 * additional "fleet" member: per-worker rows (encodeWorkerStatus)
 * plus queue depths and cache counters.
 *
 * Tracing fields (all OPTIONAL -- the protocol version stays 3 and
 * peers without them interoperate unchanged): `submit` and `work`
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
 * This header provides typed encode/decode for the structured frames;
 * trivial frames (ping/pong/bye/attach/steal/ack/...) are built
 * inline where used. The four frames that carry a config or a result
 * -- submit, work and both kinds of result -- encode straight into
 * their line through json::Writer, with no tree; the others build a
 * json::Value. Decoding parses a line into a tree and throws
 * CodecError/JsonError on malformed frames.
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
namespace service
{

/** Bumped on any incompatible frame-layout change. */
constexpr std::uint64_t kProtocolVersion = 3;

/** A grid submission: the wire form of a runner::ExperimentSet. */
struct SubmitRequest
{
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

std::string encodeSubmit(const SubmitRequest &request);
SubmitRequest decodeSubmit(const json::Value &frame);

/** One streamed result, index-aligned with the submitted grid. */
struct ResultEvent
{
    std::uint64_t job = 0;
    std::uint64_t index = 0;
    bool cached = false; ///< Served from the fingerprint cache.
    std::string workload;
    std::string label;
    std::string fingerprint;
    SimResult result;

    /**
     * Raw window counters, present exactly when the grid point's
     * config had a window: what ServiceClient::submitWindowed()
     * stitches.
     */
    bool hasDelta = false;
    StatsDelta delta;

    /**
     * Optional tracing payload ("spans"/"timing" members, absent
     * when the point was untraced): the spans recorded while this
     * point simulated and its per-phase timing breakdown.
     */
    std::vector<obs::SpanRecord> spans;
    bool hasTiming = false;
    obs::PointTiming timing;
};

std::string encodeResultEvent(const ResultEvent &event);
ResultEvent decodeResultEvent(const json::Value &frame);

/** Terminal job states reported in `done` frames. */
struct DoneEvent
{
    std::uint64_t job = 0;
    std::string status; ///< "ok", "cancelled" or "error".
    std::uint64_t completed = 0;
    std::uint64_t cached = 0;
    std::string message; ///< Failure detail for "error".
};

json::Value encodeDone(const DoneEvent &event);
DoneEvent decodeDone(const json::Value &frame);

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

json::Value encodeJobStatus(const JobStatus &status);
JobStatus decodeJobStatus(const json::Value &v);

// ---------------------------------------------------- fleet frames

/**
 * Worker enrollment, first frame on a worker's control connection.
 * Carries the protocol version (checked like submit: a mismatched
 * worker is rejected, not silently mis-fed).
 */
struct RegisterRequest
{
    std::string name;         ///< Operator-facing worker name.
    std::uint64_t slots = 1;  ///< Concurrent simulation slots.
};

json::Value encodeRegister(const RegisterRequest &request);
RegisterRequest decodeRegister(const json::Value &frame);

/** Periodic liveness proof plus the worker's local cache counters. */
struct HeartbeatFrame
{
    std::uint64_t worker = 0;
    std::uint64_t completed = 0; ///< Points finished since register.
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t backendHits = 0; ///< Served by the disk cache.

    // The worker's warmed-state checkpoint store (sim/checkpoint.hh):
    // hits are restored warmups, misses are warmups simulated.
    std::uint64_t checkpointHits = 0;
    std::uint64_t checkpointMisses = 0;

    // Always-on per-phase wall-clock totals from the worker's
    // sim.phase.* registry counters ("phase" member, optional on the
    // wire): what `--fleet-status` renders as the per-phase
    // breakdown. Microseconds; `phasePoints` counts finished points.
    std::uint64_t phaseDecodeUs = 0;
    std::uint64_t phaseWarmupUs = 0;
    std::uint64_t phaseRestoreUs = 0;
    std::uint64_t phaseMeasureUs = 0;
    std::uint64_t phasePoints = 0;

    // Deterministic per-point measure-phase latency percentiles from
    // the worker's sim.phase.measure_us_hist histogram
    // (obs::histogramQuantile; bucket-resolution). "percentiles"
    // member, optional on the wire -- absent until the worker has
    // finished a point, and from workers predating it.
    std::uint64_t measureP50Us = 0;
    std::uint64_t measureP95Us = 0;
    std::uint64_t measureP99Us = 0;
};

json::Value encodeHeartbeat(const HeartbeatFrame &heartbeat);
HeartbeatFrame decodeHeartbeat(const json::Value &frame);

/** One grid point handed to a stealing worker slot. */
struct WorkItem
{
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

std::string encodeWork(const WorkItem &item);
WorkItem decodeWork(const json::Value &frame);

/**
 * A slot's finished point. `ok` false reports a failed simulation
 * (bad trace on this worker, ...) with the detail in `message`; the
 * coordinator fails the owning job, mirroring how a local simulate
 * exception fails a SimServer job.
 */
struct WorkResult
{
    std::uint64_t task = 0;
    bool ok = true;
    std::string message; ///< Failure detail when !ok.
    bool cached = false; ///< Served from the worker's cache.
    std::string fingerprint;
    SimResult result;
    bool hasDelta = false;
    StatsDelta delta;

    /**
     * Optional tracing payload ("spans"/"timing", absent when the
     * task was untraced): the worker-side spans the coordinator
     * merges into the fleet trace and relays to the client.
     */
    std::vector<obs::SpanRecord> spans;
    bool hasTiming = false;
    obs::PointTiming timing;
};

std::string encodeWorkResult(const WorkResult &result);
WorkResult decodeWorkResult(const json::Value &frame);

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

    // The worker's own cache counters, from its last heartbeat.
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t backendHits = 0;
    std::uint64_t checkpointHits = 0;   ///< Warmups restored.
    std::uint64_t checkpointMisses = 0; ///< Warmups simulated.

    // Per-phase totals from the worker's last heartbeat ("phase"
    // member, optional on the wire; zeros from older workers).
    std::uint64_t phaseDecodeUs = 0;
    std::uint64_t phaseWarmupUs = 0;
    std::uint64_t phaseRestoreUs = 0;
    std::uint64_t phaseMeasureUs = 0;
    std::uint64_t phasePoints = 0;

    // Measure-phase latency percentiles relayed from the worker's
    // last heartbeat ("percentiles" member, optional on the wire;
    // zeros from older workers or before the first finished point).
    std::uint64_t measureP50Us = 0;
    std::uint64_t measureP95Us = 0;
    std::uint64_t measureP99Us = 0;
};

json::Value encodeWorkerStatus(const WorkerStatus &status);
WorkerStatus decodeWorkerStatus(const json::Value &v);

// -------------------------------------------------- shared helpers

/** Wire form of one grid point (shared by submit and work frames). */
runner::Experiment decodeExperiment(const json::Value &v);

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
