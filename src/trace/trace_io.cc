#include "trace/trace_io.hh"

#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"
#include "trace/preset_fields.hh"

namespace shotgun
{

namespace
{

// Byte offsets of the counters patched by TraceWriter::close().
constexpr std::streamoff kRecordCountOffset = 8;

/** Serialize `value`'s low `bytes` bytes little-endian. */
void
putLE(std::ofstream &out, std::uint64_t value, unsigned bytes)
{
    char buf[8];
    for (unsigned i = 0; i < bytes; ++i)
        buf[i] = static_cast<char>(value >> (8 * i));
    out.write(buf, bytes);
}

/**
 * Deserialize `bytes` little-endian bytes; false on short read so the
 * caller can attach the file/record context to the error.
 */
bool
getLE(std::ifstream &in, std::uint64_t &value, unsigned bytes)
{
    unsigned char buf[8];
    in.read(reinterpret_cast<char *>(buf), bytes);
    if (static_cast<std::size_t>(in.gcount()) != bytes)
        return false;
    value = 0;
    for (unsigned i = 0; i < bytes; ++i)
        value |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    return true;
}

std::uint32_t
byteSwap32(std::uint32_t v)
{
    return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
           ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

// The record codec's byte order, spelled out byte by byte so that the
// compiler makes each a single load or store on a little-endian host.

/** Store `v` as 8 little-endian bytes at `at`. */
inline void
storeLE64(unsigned char *at, std::uint64_t v)
{
    at[0] = static_cast<unsigned char>(v);
    at[1] = static_cast<unsigned char>(v >> 8);
    at[2] = static_cast<unsigned char>(v >> 16);
    at[3] = static_cast<unsigned char>(v >> 24);
    at[4] = static_cast<unsigned char>(v >> 32);
    at[5] = static_cast<unsigned char>(v >> 40);
    at[6] = static_cast<unsigned char>(v >> 48);
    at[7] = static_cast<unsigned char>(v >> 56);
}

/** The 8 little-endian bytes at `at`. */
inline std::uint64_t
loadLE64(const unsigned char *at)
{
    return std::uint64_t{at[0]} | std::uint64_t{at[1]} << 8 |
           std::uint64_t{at[2]} << 16 | std::uint64_t{at[3]} << 24 |
           std::uint64_t{at[4]} << 32 | std::uint64_t{at[5]} << 40 |
           std::uint64_t{at[6]} << 48 | std::uint64_t{at[7]} << 56;
}

// The record loops' error paths, out of line: building a message
// inline would give every record the frame the message needs.

/** TraceFileSource::next's error for a file that ends early. */
[[noreturn, gnu::cold, gnu::noinline]] void
throwTruncated(const std::string &path, std::uint64_t read,
               std::uint64_t total)
{
    throw TraceError("'" + path + "': truncated trace file after " +
                     std::to_string(read) + " of " + std::to_string(total) +
                     " records");
}

/** TraceWriter::append's error once the writer is closed. */
[[noreturn, gnu::cold, gnu::noinline]] void
panicAppendAfterClose()
{
    panic("append to closed TraceWriter");
}

/** TraceFileSource::next's error for a record of no branch type. */
[[noreturn, gnu::cold, gnu::noinline]] void
throwBadType(const std::string &path, std::uint64_t record,
             unsigned type)
{
    throw TraceError("'" + path + "': corrupt record " +
                     std::to_string(record) + " (bad branch type " +
                     std::to_string(type) + ")");
}

/** Serialize `record` into the kTraceRecordBytes bytes at `at`. */
void
encodeRecord(const BBRecord &record, unsigned char *at)
{
    storeLE64(at, record.startAddr);
    storeLE64(at + 8, record.target);
    at[16] = record.numInstrs;
    at[17] = static_cast<unsigned char>(record.type);
    at[18] = record.taken ? 1 : 0;
}

/**
 * The trace header's side of the workload field lists
 * (trace/preset_fields.hh): the preset in list order, as fixed-width
 * little-endian integers, IEEE doubles, u16-length strings and the
 * workload id as one byte. The trace path is a binding to this host,
 * not file content, so it is not archived.
 */
struct WriteArchive
{
    std::ofstream &out;

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    operator()(std::string_view, T v)
    {
        putLE(out, v, sizeof(T));
    }

    void
    operator()(std::string_view, double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        putLE(out, bits, 8);
    }

    void
    operator()(std::string_view, const std::string &s)
    {
        fatal_if(s.size() > std::numeric_limits<std::uint16_t>::max(),
                 "trace header string too long (%zu bytes)", s.size());
        putLE(out, s.size(), 2);
        out.write(s.data(), static_cast<std::streamsize>(s.size()));
    }

    template <typename E>
    void
    operator()(std::string_view, E e, EnumNames<E>)
    {
        putLE(out, static_cast<std::uint8_t>(e), 1);
    }

    template <typename S>
    std::enable_if_t<std::is_class_v<S>>
    operator()(std::string_view, const S &s)
    {
        visitFields(*this, s);
    }

    void binding(std::string_view, const std::string &) {}
};

/**
 * Header-parse failure carried as data so the caller chooses the
 * severity: readTraceInfo() stays fatal() (right for the CLIs);
 * tryReadTraceInfo() reports it and TraceFileSource throws it as a
 * TraceError (both reached by the simulation service, where a bad
 * file must never kill the daemon).
 */
struct HeaderError
{
    std::string message;
};

/** Reading side; any short read throws with the file name. */
struct ReadArchive
{
    std::ifstream &in;
    const std::string &path;

    std::uint64_t
    get(unsigned bytes)
    {
        std::uint64_t value = 0;
        if (!getLE(in, value, bytes))
            throw HeaderError{"'" + path +
                              "': truncated trace header"};
        return value;
    }

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    operator()(std::string_view, T &v)
    {
        v = static_cast<T>(get(sizeof(T)));
    }

    void
    operator()(std::string_view, double &v)
    {
        const std::uint64_t bits = get(8);
        std::memcpy(&v, &bits, sizeof(v));
    }

    void
    operator()(std::string_view, std::string &s)
    {
        const auto len = static_cast<std::size_t>(get(2));
        s.resize(len);
        in.read(s.data(), static_cast<std::streamsize>(len));
        if (static_cast<std::size_t>(in.gcount()) != len)
            throw HeaderError{"'" + path +
                              "': truncated trace header"};
    }

    template <typename E>
    void
    operator()(std::string_view, E &e, EnumNames<E>)
    {
        e = static_cast<E>(get(1));
    }

    template <typename S>
    std::enable_if_t<std::is_class_v<S>>
    operator()(std::string_view, S &s)
    {
        fields(*this, s);
    }

    void binding(std::string_view, std::string &) {}
};

/**
 * Validate magic/version and parse the full header of an open file;
 * throws HeaderError on a bad file.
 */
TraceInfo
parseHeaderOrThrow(std::ifstream &in, const std::string &path)
{
    const std::string version_text = std::to_string(kTraceVersion);
    std::uint64_t value = 0;
    if (!getLE(in, value, 4))
        throw HeaderError{"'" + path + "': truncated trace header"};
    const auto magic = static_cast<std::uint32_t>(value);
    if (magic == byteSwap32(kTraceMagic))
        throw HeaderError{
            "'" + path +
            "' has byte-swapped magic bytes: this is a "
            "foreign-endian (version-1 era) trace; re-record it -- "
            "version " +
            version_text + " files are explicitly little-endian"};
    if (magic != kTraceMagic)
        throw HeaderError{"'" + path +
                          "' is not a shotgun trace file"};

    if (!getLE(in, value, 4))
        throw HeaderError{"'" + path + "': truncated trace header"};
    const auto version = static_cast<std::uint32_t>(value);
    if (version == 1)
        throw HeaderError{
            "'" + path +
            "' is a version-1 trace (raw host-endian, no workload "
            "header); that format is no longer supported -- "
            "re-record it with shotgun-trace to get version " +
            version_text};
    if (version != kTraceVersion)
        throw HeaderError{"'" + path + "' has unsupported trace "
                                       "version " +
                          std::to_string(version) +
                          " (this build reads version " +
                          version_text + ")"};

    TraceInfo info;
    ReadArchive ar{in, path};
    info.records = ar.get(8);
    info.instructions = ar.get(8);
    info.traceSeed = ar.get(8);
    fields(ar, info.preset);
    if (info.preset.id >= WorkloadId::NumWorkloads)
        throw HeaderError{"'" + path +
                          "': corrupt trace header (bad workload id)"};
    info.preset.tracePath = path;
    return info;
}

/** The fatal() face of parseHeaderOrThrow for the CLI read paths. */
TraceInfo
parseHeader(std::ifstream &in, const std::string &path)
{
    try {
        return parseHeaderOrThrow(in, path);
    } catch (const HeaderError &e) {
        fatal("%s", e.message.c_str());
    }
}

} // namespace

TraceWriter::TraceWriter(const std::string &path,
                         const WorkloadPreset &preset,
                         std::uint64_t trace_seed)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path),
      block_(new unsigned char[kTraceBlockBytes])
{
    fatal_if(!out_.is_open(), "cannot open trace file '%s' for writing",
             path.c_str());
    putLE(out_, kTraceMagic, 4);
    putLE(out_, kTraceVersion, 4);
    putLE(out_, count_, 8);  // patched in close()
    putLE(out_, instrs_, 8); // patched in close()
    putLE(out_, trace_seed, 8);
    WriteArchive ar{out_};
    visitFields(ar, preset);
    fatal_if(!out_, "write error on trace file '%s'", path.c_str());
}

TraceWriter::~TraceWriter()
{
    if (!closed_)
        close();
}

void
TraceWriter::append(const BBRecord &record)
{
    if (closed_)
        panicAppendAfterClose();
    encodeRecord(record, block_.get() + fill_);
    fill_ += kTraceRecordBytes;
    if (fill_ == kTraceBlockBytes)
        writeBlock();
    ++count_;
    instrs_ += record.numInstrs;
}

void
TraceWriter::writeBlock()
{
    out_.write(reinterpret_cast<const char *>(block_.get()),
               static_cast<std::streamsize>(fill_));
    fill_ = 0;
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    writeBlock();
    out_.seekp(kRecordCountOffset);
    putLE(out_, count_, 8);
    putLE(out_, instrs_, 8);
    out_.flush();
    // A full disk or I/O error anywhere (records or the count patch)
    // must never look like a successfully recorded trace.
    fatal_if(!out_, "write error on trace file '%s' (disk full?)",
             path_.c_str());
    out_.close();
    fatal_if(out_.fail(), "error closing trace file '%s'",
             path_.c_str());
}

TraceBlockReader::TraceBlockReader()
    : block_(new unsigned char[kTraceBlockBytes])
{
}

bool
TraceBlockReader::refill(std::istream &in)
{
    // Reads start at record boundaries and take whole records, so a
    // partial record is left only where the stream ends.
    in.read(reinterpret_cast<char *>(block_.get()),
            static_cast<std::streamsize>(kTraceBlockBytes));
    pos_ = 0;
    end_ = static_cast<std::size_t>(in.gcount());
    return end_ >= kTraceRecordBytes;
}

TraceFileSource::TraceFileSource(const std::string &path) : path_(path)
{
    // No stream buffer: reader_'s block is the only buffer between the
    // file and its records.
    in_.rdbuf()->pubsetbuf(nullptr, 0);
    in_.open(path, std::ios::binary);
    if (!in_.is_open())
        throw TraceError("cannot open trace file '" + path + "'");
    TraceInfo info;
    try {
        info = parseHeaderOrThrow(in_, path_);
    } catch (const HeaderError &e) {
        throw TraceError(e.message);
    }
    preset_ = std::move(info.preset);
    traceSeed_ = info.traceSeed;
    total_ = info.records;
    totalInstrs_ = info.instructions;
}

bool
TraceFileSource::next(BBRecord &out)
{
    if (read_ >= total_)
        return false;
    const unsigned char *buf = reader_.next(in_);
    if (buf == nullptr)
        throwTruncated(path_, read_, total_);
    out.startAddr = loadLE64(buf);
    out.target = loadLE64(buf + 8);
    out.numInstrs = buf[16];
    if (buf[17] >= static_cast<unsigned>(BranchType::NumTypes))
        throwBadType(path_, read_, buf[17]);
    out.type = static_cast<BranchType>(buf[17]);
    out.taken = buf[18] != 0;
    ++read_;
    return true;
}

std::size_t
TraceFileSource::footprintBytes() const
{
    // The stream is unbuffered: reader_'s block is the only buffer.
    return sizeof(*this) + kTraceBlockBytes + path_.capacity() +
           preset_.name.capacity() + preset_.program.name.capacity() +
           preset_.tracePath.capacity();
}

TraceInfo
readTraceInfo(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in.is_open(), "cannot open trace file '%s'", path.c_str());
    return parseHeader(in, path);
}

bool
tryReadTraceInfo(const std::string &path, TraceInfo &out,
                 std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        error = "cannot open trace file '" + path + "'";
        return false;
    }
    try {
        out = parseHeaderOrThrow(in, path);
    } catch (const HeaderError &e) {
        error = e.message;
        return false;
    }
    // The header's record count must be backed by actual payload
    // bytes, or replay would die on a truncated file mid-run.
    const std::streamoff payload_start = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff file_end = in.tellg();
    if (payload_start < 0 || file_end < payload_start) {
        error = "'" + path + "': cannot determine trace file size";
        return false;
    }
    const std::uint64_t payload =
        static_cast<std::uint64_t>(file_end - payload_start);
    if (payload / kTraceRecordBytes < out.records) {
        error = "'" + path + "': truncated trace file (header claims " +
                std::to_string(out.records) + " records)";
        return false;
    }
    return true;
}

namespace
{

/**
 * Record from `source` into `path` while `more(writer)` holds and the
 * source has records; returns the number of records written.
 */
template <typename More>
std::uint64_t
recordWhile(TraceSource &source, const WorkloadPreset &preset,
            std::uint64_t trace_seed, const std::string &path, More more)
{
    TraceWriter writer(path, preset, trace_seed);
    BBRecord record;
    while (more(writer) && source.next(record))
        writer.append(record);
    writer.close();
    return writer.recordsWritten();
}

} // namespace

std::uint64_t
recordTrace(TraceSource &source, const WorkloadPreset &preset,
            std::uint64_t trace_seed, const std::string &path,
            std::uint64_t count)
{
    return recordWhile(source, preset, trace_seed, path,
                       [count](const TraceWriter &writer) {
                           return writer.recordsWritten() < count;
                       });
}

std::uint64_t
recordTraceInstructions(TraceSource &source, const WorkloadPreset &preset,
                        std::uint64_t trace_seed, const std::string &path,
                        std::uint64_t instructions)
{
    return recordWhile(source, preset, trace_seed, path,
                       [instructions](const TraceWriter &writer) {
                           return writer.instructionsWritten() <
                                  instructions;
                       });
}

std::unique_ptr<TraceSource>
openTraceSource(const WorkloadPreset &preset, const Program &program,
                std::uint64_t seed)
{
    if (!preset.tracePath.empty())
        return std::make_unique<TraceFileSource>(preset.tracePath);
    return std::make_unique<TraceGenerator>(program, seed);
}

} // namespace shotgun
