/**
 * @file
 * Stored simulation state: the post-warmup state of a simulation,
 * captured once and reused by every later run that shares it, and the
 * live state a window parks for the window that continues it.
 *
 * A CoreCheckpoint is a deep clone of a warmed Core (caches, every
 * BtbTable -- the conventional BTB, U-BTB, C-BTB and RIB -- and every
 * other scheme structure, RAS, FTQ/backend queues, cycle and
 * measurement counters, and the outcome cursor that stands for TAGE
 * and the data-side draws -- see Core's clone constructor) plus the
 * exact position of its stream source: a GeneratorCheckpoint for
 * synthetic workloads, a decoded-trace record index for `trace:`
 * workloads. Restoring builds a fresh
 * source, repositions it, and clones the stored Core onto it; the
 * restored run then traverses exactly the cycle sequence the original
 * would have -- the trajectory-invisibility argument is spelled out
 * in src/sim/README.md and death-tested in tests/test_checkpoint.cc.
 *
 * A ParkedCore is the other kind of stored state: the live Core and
 * trace source of a window that is not its run's last, *moved* (never
 * cloned) into the store at the end of its measured slice. The window
 * that starts where it ended takes the pair back out and measures its
 * own slice without a restore or a fast-forward. Stopping is invisible
 * (src/window/README.md), so the resumed core is in exactly the state
 * a cold window reaches after its fast-forward.
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
 * (trace/decoded_trace.hh). A parked state is stored under its key
 * and the measured position it stopped at.
 *
 * Both kinds live in one process-wide byte-budgeted store. Zero-warmup
 * runs are never stored; raw streaming TraceFileSource runs (decoded
 * store over budget) park but never capture a warmup, because a file
 * stream has no cheap exact reposition.
 *
 * The default budget is 64 MiB, least recently used first out. A
 * daemon fed fresh configs stores warmups that no run restores, so it
 * holds its program images plus the whole budget; 64 MiB is what that
 * costs. It holds a six-preset, six-scheme grid's 36 captures (about
 * 25 MB at 0.5M warm-up + 1M measured, 57-60 MB at 2M + 5M and 4M +
 * 2M), so that grid's followers, windows and reruns still restore
 * every warmup. Beyond that it costs restores: two such grids at 2M +
 * 1M charge 79 MB, the store keeps the newest 60 captures, and
 * rerunning both with a shorter measure restores none of their 72
 * warmups (in LRU order each miss's capture drops the next one the
 * rerun needs), where 256 MiB restored all 72. Dropping a capture can
 * also end its stream's outcome log (sim/outcome_store.hh); a later
 * point of the stream then produces a fresh one, with identical
 * results.
 *
 * What is stored is proportional to what the run touched: the caches
 * hold only resident lines (cache/cache.hh) and a GeneratorCheckpoint
 * only the nonzero counters. Each state is charged the heap it pins
 * -- Core::approxStateBytes() (caches, queues, the scheme's
 * footprintBytes() and the outcome log's bytes), plus the generator
 * checkpoint for a capture or the source's footprintBytes() for a
 * parked core -- so the budget bounds the memory the store keeps
 * alive, not a modelled size.
 */

#ifndef SHOTGUN_SIM_CHECKPOINT_HH
#define SHOTGUN_SIM_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/memo.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"
#include "trace/decoded_trace.hh"
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

    /**
     * The charge against the store's budget: this object, the clone's
     * Core::approxStateBytes() (its outcome log included) and the
     * generator checkpoint's heap.
     */
    std::size_t bytes = 0;
};

/**
 * Checkpoint warmed `core`, whose stream is `generator` (synthetic)
 * or else `cursor` (a decoded trace): a clone of the core, the
 * stream's position, and the charge for both. Cloning is const on
 * `core`, so the run can continue on the original.
 */
CoreCheckpoint captureCheckpoint(const Core &core,
                                 const TraceGenerator *generator,
                                 const DecodedTraceCursor *cursor);

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

/** A window's live Core and the source it reads, parked for reuse. */
struct ParkedCore
{
    std::unique_ptr<TraceSource> source;
    std::unique_ptr<Core> core; ///< Reads *source.

    /**
     * The charge against the store's budget: the core's
     * approxStateBytes() plus its source's footprintBytes() (a
     * generator's dense counter table, say).
     */
    std::size_t bytes = 0;
};

/** Park `core` with the `source` it reads, charged what both pin. */
ParkedCore parkCore(std::unique_ptr<Core> core,
                    std::unique_ptr<TraceSource> source);

/**
 * What CheckpointCache::acquire() found for a run: at most one of the
 * two is set. A parked core (`parked.core` non-null) is the run's to
 * resume; a warmed checkpoint is shared and restored by cloning.
 */
struct StoredState
{
    ParkedCore parked;
    std::shared_ptr<const CoreCheckpoint> warmed;
};

/**
 * The byte-budgeted store of warmed checkpoints (LRU) and parked
 * window cores. Producers simulate themselves and put() or park();
 * consumers acquire() -- the same asynchronous-producer shape the
 * fleet result cache uses. The predecessor gate
 * (runner::checkpointPredecessors) makes each window wait for the
 * window that parks its start and every other point of a key wait for
 * the key's first point, so grid followers find the state stored
 * instead of racing to warm up in parallel.
 *
 * Parked states count against the same budget as checkpoints, and at
 * most one is parked per key: a newer park replaces the older one.
 * When the two kinds together exceed the budget, the least recently
 * used checkpoints go first, except those under a parked state's key,
 * then parked states, oldest first; a run that then finds no parked
 * state falls back to its warmup checkpoint and fast-forwards. So a
 * store filled with one-off captures still resumes windows.
 */
class CheckpointCache
{
  public:
    /** Default budget of the process-wide store (64 MiB). */
    static constexpr std::size_t kDefaultBudgetBytes =
        64ull * 1024 * 1024;

    explicit CheckpointCache(
        std::size_t budget_bytes = kDefaultBudgetBytes);

    /**
     * The stored state a run of `key` whose measured slice starts at
     * `position` can begin from: the core parked at exactly
     * `position` (moved out of the store), else the key's warmed
     * checkpoint, else nothing. Counts one hit or one miss.
     */
    StoredState acquire(const std::string &key, std::uint64_t position);

    /** Store a warmed checkpoint; an existing one for the key wins. */
    void put(const std::string &key, CoreCheckpoint checkpoint);

    /**
     * Park a window's live core, which stopped at measured position
     * `position`, replacing any state parked earlier under `key`.
     */
    void park(const std::string &key, std::uint64_t position,
              ParkedCore state);

    /**
     * hits = runs started from stored state (restored or resumed),
     * misses = warmups simulated; entries, bytes and evictions cover
     * checkpoints and parked states together.
     */
    MemoCacheStats stats() const;

  private:
    struct Parked
    {
        std::uint64_t position = 0;
        std::uint64_t age = 0; ///< Park order, for eviction.
        ParkedCore state;
    };

    /**
     * Evict checkpoints no parked state falls back to, then the
     * oldest parked states, until the budget fits.
     */
    void trimLocked();

    const std::size_t budget_;
    LruMemoCache<std::string, CoreCheckpoint> checkpoints_;

    mutable std::mutex mutex_; ///< Guards the parked states below.
    std::map<std::string, Parked> parked_;
    std::size_t parkedBytes_ = 0;
    std::uint64_t parks_ = 0;
    std::size_t resumes_ = 0;
    std::size_t parkedEvictions_ = 0;
};

/** The process-wide store every simulation shares. */
CheckpointCache &checkpointCache();

} // namespace shotgun

#endif // SHOTGUN_SIM_CHECKPOINT_HH
