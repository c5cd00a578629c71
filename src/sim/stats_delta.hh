/**
 * @file
 * Mergeable per-window statistics for windowed simulation. A
 * StatsDelta (cpu/core.hh) holds every raw counter a SimResult is
 * derived from; deltaBetween() takes the difference of two
 * Core::snapshotStats() readings, one window's delta, and merge() is
 * associative and commutative, so the deltas of a full-coverage
 * window plan can be stitched back, in any order, into exactly the
 * monolithic run's totals.
 *
 * Exactness: every field is either a 64-bit counter or a double sum
 * of integral samples far below 2^53, so snapshot subtraction and
 * delta addition are exact in IEEE double arithmetic -- merging is
 * bit-for-bit permutation-invariant, which tests/test_window.cc
 * asserts. finalizeResult() computes the derived metrics (IPC, MPKI,
 * accuracies) with the same expressions runSimulation() uses, hence
 * a stitched SimResult is numerically identical to a monolithic one.
 */

#ifndef SHOTGUN_SIM_STATS_DELTA_HH
#define SHOTGUN_SIM_STATS_DELTA_HH

#include <cstdint>
#include <string>

#include "cpu/core.hh"

namespace shotgun
{

struct SimResult;

/**
 * The delta between two snapshots of one run, `begin` taken no later
 * than `end`. panic() when `end` precedes `begin` (snapshots from
 * different runs or swapped arguments).
 */
StatsDelta deltaBetween(const StatsDelta &begin, const StatsDelta &end);

/** Accumulate `d` into `into`. Associative and commutative. */
void merge(StatsDelta &into, const StatsDelta &d);

/** Exact (bitwise) equality, mirroring SimResult's contract. */
bool operator==(const StatsDelta &a, const StatsDelta &b);
inline bool
operator!=(const StatsDelta &a, const StatsDelta &b)
{
    return !(a == b);
}

/**
 * Derive a SimResult from raw counters, with the exact expressions
 * runSimulation() historically used -- runSimulation() itself now
 * routes through this, so "stitched == monolithic" holds by
 * construction whenever the merged delta equals the monolithic one.
 */
SimResult finalizeResult(const std::string &workload,
                         const std::string &scheme,
                         std::uint64_t scheme_storage_bits,
                         const StatsDelta &delta);

} // namespace shotgun

#endif // SHOTGUN_SIM_STATS_DELTA_HH
