/**
 * @file
 * Binary trace serialization. Live generation is the common case, but
 * recorded traces make experiments replayable across tools and let
 * downstream users feed their own control-flow traces (e.g. converted
 * from ChampSim or gem5 output) into the simulator.
 *
 * Format (version 2) -- every integer is serialized explicitly
 * little-endian, so files interchange between hosts of any endianness:
 *
 *   u32  magic "SHTG"
 *   u32  version (2)
 *   u64  record count        (patched on close)
 *   u64  instruction count   (patched on close)
 *   u64  generator seed the trace was recorded with
 *   WorkloadPreset            (the full program-model + data-side
 *                              parameters, so a trace file is a
 *                              self-describing workload)
 *   records: u64 startAddr, u64 target, u8 numInstrs, u8 type, u8 taken
 *
 * Version 1 files were raw host-endian structs without the embedded
 * preset; they are rejected with a clear message (re-record them).
 *
 * Records move through one fixed, reused block of kTraceBlockRecords
 * records in each direction: TraceWriter encodes them into its block
 * and writes it whole when it is full, and TraceFileSource (and with
 * it the shared decode, trace/decoded_trace.hh) reads them a block at
 * a time through TraceBlockReader. The block is only how bytes move:
 * the version-2 format above is unchanged, and no reader ever holds
 * more than one block of a payload.
 */

#ifndef SHOTGUN_TRACE_TRACE_IO_HH
#define SHOTGUN_TRACE_TRACE_IO_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "trace/generator.hh"
#include "trace/instruction.hh"
#include "trace/presets.hh"

namespace shotgun
{

/** Magic bytes at the start of a trace file. */
constexpr std::uint32_t kTraceMagic = 0x47544853; // "SHTG"

/** Current trace format version. */
constexpr std::uint32_t kTraceVersion = 2;

/** On-disk size of one trace record. */
constexpr std::size_t kTraceRecordBytes = 19;

/** Records per block of the record codec. */
constexpr std::size_t kTraceBlockRecords = 3449;

/** Bytes per block: whole records, just under 64 KiB. */
constexpr std::size_t kTraceBlockBytes =
    kTraceBlockRecords * kTraceRecordBytes;

/**
 * A trace a run cannot use: a missing file, a bad header, damaged
 * records (a truncated file, a bad branch type, counts that disagree
 * with the header), or a recording that does not fit the run. The
 * readers a daemon reaches throw it -- TraceFileSource's constructor
 * and next(), the shared decode and its header re-read
 * (trace/decoded_trace.hh), and runSimulation()'s program and
 * length checks -- so a bad file, or one deleted or rewritten after
 * the submit-time check, fails its point, never the process. The
 * message is the one the tools print.
 */
struct TraceError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * run() for a command-line tool: a TraceError is fatal(), exit 1
 * with its message.
 */
template <typename F>
auto
fatalOnTraceError(F &&run) -> decltype(run())
{
    try {
        return run();
    } catch (const TraceError &e) {
        fatal("%s", e.what());
    }
}

/** Streams BBRecords into a binary trace file. */
class TraceWriter
{
  public:
    /**
     * Open `path` for writing a trace of `preset` recorded with
     * generator seed `trace_seed`; fatal() on failure.
     */
    TraceWriter(const std::string &path, const WorkloadPreset &preset,
                std::uint64_t trace_seed);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const BBRecord &record);

    /**
     * Flush and patch the record/instruction counts into the header;
     * fatal() if any write (including the patch) failed, so a full
     * disk can never masquerade as success.
     */
    void close();

    std::uint64_t recordsWritten() const { return count_; }
    std::uint64_t instructionsWritten() const { return instrs_; }

  private:
    /**
     * Write the records in the block and empty it: once a block, so
     * out of append()'s record path.
     */
    [[gnu::cold, gnu::noinline]] void writeBlock();

    std::ofstream out_;
    std::string path_;
    /** Encoded records not yet written: kTraceBlockBytes bytes. */
    std::unique_ptr<unsigned char[]> block_;
    std::size_t fill_ = 0; ///< Bytes of block_ in use.
    std::uint64_t count_ = 0;
    std::uint64_t instrs_ = 0;
    bool closed_ = false;
};

/**
 * The read side of the record codec: serialized records, read from a
 * stream kTraceBlockRecords at a time into one block of
 * kTraceBlockBytes that is reused. The stream must stand at a record
 * boundary when a block is read.
 */
class TraceBlockReader
{
  public:
    TraceBlockReader();

    /**
     * The next record's kTraceRecordBytes bytes from `in`, valid until
     * the next call; nullptr when `in` ends before a whole record.
     */
    const unsigned char *
    next(std::istream &in)
    {
        if (end_ - pos_ < kTraceRecordBytes && !refill(in))
            return nullptr;
        const unsigned char *record = block_.get() + pos_;
        pos_ += kTraceRecordBytes;
        return record;
    }

  private:
    /** Read the next block from `in`; false when no record is left. */
    bool refill(std::istream &in);

    std::unique_ptr<unsigned char[]> block_;
    std::size_t pos_ = 0; ///< Offset of the next record in block_.
    std::size_t end_ = 0; ///< Bytes block_ holds.
};

/** Header summary of a trace file (shotgun-trace info, trace: specs). */
struct TraceInfo
{
    WorkloadPreset preset;
    std::uint64_t traceSeed = 1;
    std::uint64_t records = 0;
    std::uint64_t instructions = 0;
};

/** Replays a binary trace file as a TraceSource. */
class TraceFileSource : public TraceSource
{
  public:
    /**
     * Open `path` for reading; throws TraceError when it cannot be
     * opened or its header is bad.
     */
    explicit TraceFileSource(const std::string &path);

    /** The next record; throws TraceError on a damaged one. */
    bool next(BBRecord &out) override;

    /** The object, its block, path and preset. */
    std::size_t footprintBytes() const override;

    std::uint64_t totalRecords() const { return total_; }
    std::uint64_t totalInstructions() const { return totalInstrs_; }
    std::uint64_t recordsRead() const { return read_; }

    /**
     * The workload the trace was recorded from, reconstructed from
     * the header (tracePath points back at this file).
     */
    const WorkloadPreset &preset() const { return preset_; }

    /** Generator seed the trace was recorded with. */
    std::uint64_t traceSeed() const { return traceSeed_; }

  private:
    std::ifstream in_; ///< Unbuffered: reader_ holds the only buffer.
    TraceBlockReader reader_;
    std::string path_;
    WorkloadPreset preset_;
    std::uint64_t traceSeed_ = 1;
    std::uint64_t total_ = 0;
    std::uint64_t totalInstrs_ = 0;
    std::uint64_t read_ = 0;
};

/** Read and validate just the header of `path`; fatal() on a bad file. */
TraceInfo readTraceInfo(const std::string &path);

/**
 * Non-fatal variant for long-running services (shotgun-serve
 * validates submissions with it): same checks as readTraceInfo()
 * plus a payload-size check -- the file must actually hold the
 * `records` the header claims -- reported through `error` instead of
 * killing the process. Lives here so the header layout has exactly
 * one owner.
 */
bool tryReadTraceInfo(const std::string &path, TraceInfo &out,
                      std::string &error);

/**
 * Record up to `count` basic blocks from `source` into `path`.
 * @return number of records written.
 */
std::uint64_t recordTrace(TraceSource &source,
                          const WorkloadPreset &preset,
                          std::uint64_t trace_seed,
                          const std::string &path, std::uint64_t count);

/**
 * Record basic blocks from `source` into `path` until at least
 * `instructions` instructions are captured (or the source runs dry).
 * @return number of records written.
 */
std::uint64_t recordTraceInstructions(TraceSource &source,
                                      const WorkloadPreset &preset,
                                      std::uint64_t trace_seed,
                                      const std::string &path,
                                      std::uint64_t instructions);

/**
 * The TraceSource for a workload: file replay when `preset.tracePath`
 * is set, otherwise a live generator over `program` with `seed`.
 * `program` must be the image built from `preset.program` (see
 * programFor in sim/simulator.hh).
 */
std::unique_ptr<TraceSource> openTraceSource(const WorkloadPreset &preset,
                                             const Program &program,
                                             std::uint64_t seed);

} // namespace shotgun

#endif // SHOTGUN_TRACE_TRACE_IO_HH
