/**
 * @file
 * The canonical encoding of a SimConfig: every field, always, in a
 * fixed order, as compact single-line JSON. It is the one identity a
 * configuration has, and every cache keys on it --
 *
 *  - configFingerprint() (FNV-1a over the canonical bytes) keys the
 *    service's result cache, the fleet's disk cache and the client's
 *    dedup;
 *  - checkpointKey() (sim/checkpoint.hh) is the fingerprint of the
 *    config with its measurement bounds blanked;
 *  - programFor() keys program images on the ProgramParams encoding.
 *
 * The same objects travel on the wire (service/protocol.hh) and
 * decode strictly through service/codec.hh, and a decoded config
 * re-encodes to the same bytes, so configs can be logged and replayed
 * years later.
 */

#ifndef SHOTGUN_SIM_CANONICAL_HH
#define SHOTGUN_SIM_CANONICAL_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "sim/simulator.hh"

namespace shotgun
{

json::Value encodeProgramParams(const ProgramParams &params);
json::Value encodeWorkloadPreset(const WorkloadPreset &preset);
json::Value encodeCoreParams(const CoreParams &params);
json::Value encodeSchemeConfig(const SchemeConfig &config);
json::Value encodeSimWindow(const SimWindow &window);
json::Value encodeSimConfig(const SimConfig &config);

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
