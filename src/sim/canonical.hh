/**
 * @file
 * The canonical encoding of the wire structs: every field, always, in
 * the order of its field list (sim/fields.hh), as compact single-line
 * JSON. A config's encoding is the one identity it has, and every
 * cache keys on it --
 *
 *  - configFingerprint() (FNV-1a over the canonical bytes) keys the
 *    service's result cache, the fleet's disk cache and the client's
 *    dedup;
 *  - checkpointKey() (sim/checkpoint.hh) is the fingerprint of the
 *    config with its measurement bounds blanked;
 *  - outcomeKey() (sim/outcome_store.hh) hashes just what a stream
 *    and its data-side draws depend on: the workload, the seed (or
 *    the trace header) and the window skip;
 *  - programFor() keys program images on the ProgramParams encoding.
 *
 * Two writers produce it, both runs of the same field lists: the
 * streaming writeCanonical() (straight into a frame, a key or a hash,
 * no tree) and the json::Value encoders below, whose dump() is the
 * same bytes. The same objects travel on the wire
 * (service/protocol.hh) and decode strictly through service/codec.hh,
 * and a decoded config re-encodes to the same bytes, so configs can
 * be logged and replayed years later.
 */

#ifndef SHOTGUN_SIM_CANONICAL_HH
#define SHOTGUN_SIM_CANONICAL_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "obs/uarch.hh"
#include "sim/simulator.hh"

namespace shotgun
{

json::Value encodeSimConfig(const SimConfig &config);
json::Value encodeSimResult(const SimResult &result);

/**
 * Raw per-window counters (sim/stats_delta.hh), shipped in windowed
 * `result` frames so the client stitches from exact integers, never
 * from derived doubles.
 */
json::Value encodeStatsDelta(const StatsDelta &delta);

/**
 * Microarchitectural probe payload (obs/uarch.hh). SimResult and
 * StatsDelta embed it as the *optional* "uarch" member, emitted only
 * when the run had probes enabled, so probe-free payloads are
 * byte-identical to what they were before the probe layer existed.
 */
json::Value encodeUarchBreakdown(const obs::UarchBreakdown &u);

/**
 * Stream the canonical encoding of a struct as the next value of `w`:
 * the bytes encodeX(x).dump() produces, without the tree.
 */
void writeCanonical(json::Writer &w, const ProgramParams &params);
void writeCanonical(json::Writer &w, const WorkloadPreset &preset);
void writeCanonical(json::Writer &w, const SimConfig &config);
void writeCanonical(json::Writer &w, const SimResult &result);
void writeCanonical(json::Writer &w, const StatsDelta &delta);

/** writeCanonical() into a fresh string. */
template <typename T>
std::string
canonicalText(const T &x)
{
    std::string out;
    json::Writer w(out);
    writeCanonical(w, x);
    return out;
}

/**
 * Stable identity of a simulation: 16 lowercase hex digits of the
 * FNV-1a 64 hash over the canonical encoding. Two configs share a
 * fingerprint iff they encode to the same bytes.
 *
 * Note a trace-backed workload is fingerprinted by its trace *path*
 * plus the header-derived preset, not the file content; re-recording
 * a different workload over the same path on a live server would
 * alias cache entries. Don't do that.
 */
std::string configFingerprint(const SimConfig &config);

/** The 16-hex-digit rendering of an FNV-1a hash (exposed for tests). */
std::string fingerprintHex(std::uint64_t hash);

} // namespace shotgun

#endif // SHOTGUN_SIM_CANONICAL_HH
