/**
 * @file
 * Warmed-state checkpoints: the post-warmup state of a simulation,
 * captured once and reused by every later run that shares it.
 *
 * A CoreCheckpoint is a deep clone of a warmed Core (caches, U-BTB/
 * C-BTB/RIB and every other scheme structure, TAGE, RAS, FTQ/backend
 * queues, the data-side RNG, cycle and measurement counters -- see
 * Core's clone constructor) plus the exact position of its stream
 * source: a GeneratorCheckpoint for synthetic workloads, a decoded-
 * trace record index for `trace:` workloads. Restoring builds a fresh
 * source, repositions it, and clones the stored Core onto it; the
 * restored run then traverses exactly the cycle sequence the original
 * would have -- the trajectory-invisibility argument is spelled out
 * in src/sim/README.md and death-tested in tests/test_checkpoint.cc.
 *
 * A key is the config fingerprint (sim/canonical.hh) of the config
 * with its measurement bounds blanked, so it covers everything that
 * shapes the warmup: workload, seed, warmup length, window skip, core
 * parameters and the full SchemeConfig. The scheme is part of the key
 * because warmed state is scheme-visible: prefetches change cache
 * contents and timing, so sharing a checkpoint across schemes would
 * break the byte-identity contract. Grid points that differ only in
 * measurement window share a key -- the big win for windowed/sampled
 * plans and repeated service jobs -- and a multi-scheme grid warms
 * once per scheme while sharing one trace decode
 * (trace/decoded_trace.hh).
 *
 * Checkpoints live in a process-wide LRU byte-budgeted store
 * (tryGet/put, mirroring how the fleet coordinator feeds its result
 * cache). Raw streaming TraceFileSource runs (decoded store over
 * budget) and zero-warmup runs are simply not checkpointed.
 */

#ifndef SHOTGUN_SIM_CHECKPOINT_HH
#define SHOTGUN_SIM_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/memo.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace shotgun
{

/** A warmed Core parked for reuse, with its stream position. */
struct CoreCheckpoint
{
    /** The cloned Core, detached from any source (never stepped). */
    std::shared_ptr<const Core> core;

    /** True when `generator` holds the position (synthetic stream). */
    bool fromGenerator = false;

    /** Generator state at the checkpoint (fromGenerator). */
    GeneratorCheckpoint generator{};

    /** Decoded-trace cursor record index (!fromGenerator). */
    std::uint64_t cursorRecord = 0;

    /** Accounted footprint (Core::approxStateBytes at capture). */
    std::size_t bytes = 0;
};

/**
 * The cache key for `config`'s warmed state: the configFingerprint()
 * of `config` with measureInstructions, window.measureStart and
 * window.measureEnd zeroed. `trace` must be the opened trace's header
 * for `trace:` workloads (its seed and counts are appended, binding
 * the key to this recording, so a re-recorded file never reuses a
 * stale checkpoint) and nullptr for generator workloads.
 */
std::string checkpointKey(const SimConfig &config,
                          const TraceInfo *trace);

/**
 * The LRU byte-budgeted checkpoint store. Producers simulate the
 * warmup themselves and put(); consumers tryGet() -- the same
 * asynchronous-producer shape the fleet result cache uses. Cohort
 * scheduling (runner/grid_scheduler.hh) serializes the first point of
 * each key, so grid followers find the checkpoint populated instead
 * of racing to warm up in parallel.
 */
class CheckpointCache
{
  public:
    /** Default budget of the process-wide store (256 MiB). */
    static constexpr std::size_t kDefaultBudgetBytes =
        256ull * 1024 * 1024;

    explicit CheckpointCache(
        std::size_t budget_bytes = kDefaultBudgetBytes)
        : cache_(budget_bytes,
                 [](const std::string &, const CoreCheckpoint &cp) {
                     return cp.bytes;
                 })
    {
    }

    std::shared_ptr<const CoreCheckpoint>
    tryGet(const std::string &key)
    {
        return cache_.tryGet(key);
    }

    void put(const std::string &key, CoreCheckpoint checkpoint)
    {
        cache_.put(key, std::move(checkpoint));
    }

    /** hits = restored runs, misses = warmups simulated. */
    MemoCacheStats stats() const { return cache_.stats(); }

  private:
    LruMemoCache<std::string, CoreCheckpoint> cache_;
};

/** The process-wide store every simulation shares. */
CheckpointCache &checkpointCache();

} // namespace shotgun

#endif // SHOTGUN_SIM_CHECKPOINT_HH
