/**
 * @file
 * Process-wide shared trace decode. A grid sweeping N schemes over one
 * `trace:` workload used to open and decode the same file N times --
 * once per Core. DecodedTraceStore decodes a file once into an
 * immutable in-memory DecodedTrace (records + instruction prefix sums)
 * and hands out cheap DecodedTraceCursor views, so any number of
 * concurrent Cores replay one decode.
 *
 * Determinism contract: a DecodedTraceCursor produces byte-for-byte
 * the stream a TraceFileSource over the same file produces, including
 * skipInstructions() landing on the identical record (asserted in
 * tests/test_checkpoint.cc). The store is therefore transparent: any
 * consumer may be handed either source and the simulation trajectory
 * is unchanged. Cursors also expose seekToRecord(), which the warmup
 * checkpoint machinery (sim/checkpoint.hh) uses to reposition a
 * restored Core's stream exactly.
 *
 * Entries are keyed by path *plus* the header counters/seed, so a
 * re-recorded file under the same path simply misses to a fresh
 * decode while the stale entry ages out of the LRU budget. A file
 * whose decoded footprint would exceed the whole budget is refused
 * (acquire() returns nullptr) and the caller falls back to streaming
 * TraceFileSource replay -- same records, just slower.
 */

#ifndef SHOTGUN_TRACE_DECODED_TRACE_HH
#define SHOTGUN_TRACE_DECODED_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/memo.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"

namespace shotgun
{

/** One fully decoded trace file, immutable after construction. */
class DecodedTrace
{
  public:
    /**
     * Decode every record of `path`; throws TraceError
     * (trace/trace_io.hh) on a file it cannot open, a bad header or
     * damaged records.
     */
    explicit DecodedTrace(const std::string &path);

    const TraceInfo &info() const { return info_; }
    const WorkloadPreset &preset() const { return info_.preset; }
    std::uint64_t traceSeed() const { return info_.traceSeed; }
    std::uint64_t records() const { return records_.size(); }
    std::uint64_t instructions() const { return info_.instructions; }

    const BBRecord &record(std::uint64_t i) const { return records_[i]; }

    /** Instructions contained in records [0, i). */
    std::uint64_t instructionsBefore(std::uint64_t i) const
    {
        return prefix_[i];
    }

    /**
     * The record index a linear skip landing rule reaches: the first
     * boundary whose cumulative instruction count >= `target`
     * (clamped to the end of the trace).
     */
    std::uint64_t recordAtInstruction(std::uint64_t target) const;

    /** Accounted in-memory footprint (for the store's LRU budget). */
    std::size_t bytes() const;

    /** Predicted footprint of decoding a trace of `records` records. */
    static std::size_t estimateBytes(std::uint64_t records);

  private:
    TraceInfo info_;
    std::vector<BBRecord> records_;
    /** prefix_[i] = instructions in records [0, i); size records+1. */
    std::vector<std::uint64_t> prefix_;
};

/**
 * A TraceSource view over a shared DecodedTrace. Copyable position
 * over immutable data: many cursors stream one decode concurrently.
 */
class DecodedTraceCursor : public TraceSource
{
  public:
    explicit DecodedTraceCursor(
        std::shared_ptr<const DecodedTrace> trace)
        : trace_(std::move(trace))
    {
    }

    bool next(BBRecord &out) override;

    /**
     * Same landing rule as the linear TraceSource default and
     * TraceFileSource's indexed seek: stop at the first record
     * boundary at or past the threshold -- here found by binary
     * search over the prefix sums instead of reading records.
     */
    std::uint64_t skipInstructions(std::uint64_t instructions) override;

    /** Reposition to record `record` (checkpoint restore). */
    void seekToRecord(std::uint64_t record);

    /** The cursor alone: the decode it reads is the store's. */
    std::size_t footprintBytes() const override { return sizeof(*this); }

    const WorkloadPreset &preset() const { return trace_->preset(); }
    std::uint64_t traceSeed() const { return trace_->traceSeed(); }
    std::uint64_t totalRecords() const { return trace_->records(); }
    std::uint64_t totalInstructions() const
    {
        return trace_->instructions();
    }
    std::uint64_t recordsRead() const { return read_; }
    std::uint64_t instructionsRead() const
    {
        return trace_->instructionsBefore(read_);
    }

    const std::shared_ptr<const DecodedTrace> &trace() const
    {
        return trace_;
    }

  private:
    std::shared_ptr<const DecodedTrace> trace_;
    std::uint64_t read_ = 0;
};

/** Point-in-time counters of a DecodedTraceStore. */
struct DecodedTraceStoreStats
{
    MemoCacheStats cache;        ///< Entries/bytes/hits/misses/evictions.
    std::size_t decodes = 0;     ///< Full file decodes performed.
    std::size_t rejected = 0;    ///< acquire() refusals (over budget).
};

/**
 * The shared decode cache. acquire() is the only way in: it reads the
 * file header (cheap), refuses files whose decoded footprint would
 * exceed the whole budget, and otherwise decodes once per
 * (path, header) key -- concurrent callers for the same trace share
 * the in-flight decode via the underlying LruMemoCache future.
 */
class DecodedTraceStore
{
  public:
    /** Default budget of the process-wide store (256 MiB). */
    static constexpr std::size_t kDefaultBudgetBytes =
        256ull * 1024 * 1024;

    explicit DecodedTraceStore(
        std::size_t budget_bytes = kDefaultBudgetBytes);

    /**
     * The decoded trace for `path`, or nullptr when its footprint
     * would exceed the store budget (caller streams the file
     * instead). A TraceError on a missing or unreadable file, a bad
     * or truncated header, or damaged records; a failed decode is
     * not kept, so the next acquire() reads the file again.
     */
    std::shared_ptr<const DecodedTrace> acquire(const std::string &path);

    DecodedTraceStoreStats stats() const;

  private:
    std::size_t budget_;
    LruMemoCache<std::string, std::shared_ptr<const DecodedTrace>>
        cache_;
    mutable std::mutex mutex_; ///< decodes_/rejected_ counters.
    std::size_t decodes_ = 0;
    std::size_t rejected_ = 0;
};

/** The process-wide store every simulation shares. */
DecodedTraceStore &decodedTraces();

} // namespace shotgun

#endif // SHOTGUN_TRACE_DECODED_TRACE_HH
