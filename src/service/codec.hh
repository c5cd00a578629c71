/**
 * @file
 * Strict decoding of the canonical encodings (sim/canonical.hh): one
 * reader runs each struct's field list (sim/fields.hh) over a parsed
 * JSON object. The service embeds these objects in its frames
 * (service/protocol.hh).
 *
 * Decoding is strict: a missing field, an unknown field, a kind
 * mismatch or a value the simulator cannot run (the struct's
 * brokenRule()) raises CodecError (derived from json::JsonError) --
 * frames are rejected, the process never dies.
 *
 * Workloads round-trip two ways: the canonical form embeds the full
 * WorkloadPreset (program-model parameters, data-side knobs and the
 * trace path), while decode also accepts a compact string -- a preset
 * name ("oracle") or a `trace:<path>[:name]` spec -- which is
 * resolved through presetByName(), letting hand-written submissions
 * reference a workload the way every bench command line does.
 */

#ifndef SHOTGUN_SERVICE_CODEC_HH
#define SHOTGUN_SERVICE_CODEC_HH

#include <string>

#include "common/json.hh"
#include "obs/uarch.hh"
#include "sim/canonical.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace service
{

/** Strict decode failure: the message names field and problem. */
struct CodecError : json::JsonError
{
    explicit CodecError(const std::string &what) : json::JsonError(what)
    {
    }
};

// ------------------------------------------------------------- encode

// The canonical encoders and identity live in the sim layer; these
// keep the service-qualified names working.
using shotgun::configFingerprint;
using shotgun::encodeSimConfig;
using shotgun::encodeSimResult;
using shotgun::encodeStatsDelta;
using shotgun::encodeUarchBreakdown;
using shotgun::fingerprintHex;

// ------------------------------------------------------------- decode

/**
 * Accepts the canonical object form or a compact string (preset name
 * or `trace:<path>[:name]` spec). A string trace spec requires the
 * trace file to be readable here -- its header is the preset.
 */
WorkloadPreset decodeWorkloadPreset(const json::Value &v);


/**
 * Strict decode plus semantic validation (an enabled window must be
 * a non-empty range; a stream skip needs a window): an invalid
 * window is a rejected frame, never a fatal() inside a simulation
 * worker thread of the daemon. Every decoder validates the same way.
 */
SimWindow decodeSimWindow(const json::Value &v);

SimConfig decodeSimConfig(const json::Value &v);
SimResult decodeSimResult(const json::Value &v);
StatsDelta decodeStatsDelta(const json::Value &v);

// ------------------------------------------------- trace validation

/**
 * Non-fatal trace-file sanity probe for the service boundary (the
 * trace reader proper is fatal() on damage -- right for a CLI,
 * lethal for a daemon). Wraps trace_io's tryReadTraceInfo() -- valid
 * v2 header, payload backs the claimed record count -- and
 * additionally requires at least `needed_instructions`. Returns
 * false with a message in `error`; does not throw. `info` (optional)
 * receives the parsed header so callers can cross-check the embedded
 * preset against a submitted config. Damage to record *content* is
 * still only caught by the reader mid-run.
 */
bool probeTraceFile(const std::string &path,
                    std::uint64_t needed_instructions,
                    std::string &error, TraceInfo *info = nullptr);

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_CODEC_HH
