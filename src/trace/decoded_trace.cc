#include "trace/decoded_trace.hh"

#include "common/logging.hh"

namespace shotgun
{

DecodedTrace::DecodedTrace(const std::string &path)
{
    TraceFileSource source(path);
    info_.preset = source.preset();
    info_.traceSeed = source.traceSeed();
    info_.records = source.totalRecords();
    info_.instructions = source.totalInstructions();

    records_.reserve(static_cast<std::size_t>(info_.records));
    BBRecord record;
    std::uint64_t instrs = 0;
    while (source.next(record)) {
        records_.push_back(record);
        instrs += record.numInstrs;
    }
    if (records_.size() != info_.records)
        throw TraceError("'" + path + "': header claims " +
                         std::to_string(info_.records) +
                         " records but the file holds " +
                         std::to_string(records_.size()));
    if (instrs != info_.instructions)
        throw TraceError("'" + path + "': header claims " +
                         std::to_string(info_.instructions) +
                         " instructions but the records hold " +
                         std::to_string(instrs) + " (corrupt trace?)");
}

std::size_t
DecodedTrace::bytes() const
{
    return sizeof(DecodedTrace) + records_.capacity() * sizeof(BBRecord);
}

std::size_t
DecodedTrace::estimateBytes(std::uint64_t records)
{
    return sizeof(DecodedTrace) +
           static_cast<std::size_t>(records) * sizeof(BBRecord);
}

bool
DecodedTraceCursor::next(BBRecord &out)
{
    if (read_ >= trace_->records())
        return false;
    out = trace_->record(read_++);
    return true;
}

void
DecodedTraceCursor::seekToRecord(std::uint64_t record)
{
    panic_if(record > trace_->records(),
             "cursor seek past the end of the decoded trace");
    read_ = record;
}

DecodedTraceStore::DecodedTraceStore(std::size_t budget_bytes)
    : budget_(budget_bytes),
      cache_(budget_bytes,
             [](const std::string &,
                const std::shared_ptr<const DecodedTrace> &trace) {
                 return trace->bytes();
             })
{
}

std::shared_ptr<const DecodedTrace>
DecodedTraceStore::acquire(const std::string &path)
{
    // The header read is cheap and serves two purposes: sizing the
    // refusal check without decoding, and binding the cache key to
    // this recording so a re-recorded file never serves stale records.
    // A daemon validated the file at submit time, but it may have been
    // deleted or rewritten since: that fails the point, not the daemon.
    TraceInfo info;
    std::string error;
    if (!tryReadTraceInfo(path, info, error))
        throw TraceError(error);
    if (budget_ != 0 &&
        DecodedTrace::estimateBytes(info.records) > budget_) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++rejected_;
        return nullptr;
    }

    const std::string key =
        path + "#" + std::to_string(info.records) + ":" +
        std::to_string(info.instructions) + ":" +
        std::to_string(info.traceSeed);
    auto entry = cache_.get(key, [this, &path]() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++decodes_;
        }
        return std::make_shared<const DecodedTrace>(path);
    });
    return *entry;
}

DecodedTraceStoreStats
DecodedTraceStore::stats() const
{
    DecodedTraceStoreStats stats;
    stats.cache = cache_.stats();
    std::lock_guard<std::mutex> lock(mutex_);
    stats.decodes = decodes_;
    stats.rejected = rejected_;
    return stats;
}

DecodedTraceStore &
decodedTraces()
{
    static DecodedTraceStore store;
    return store;
}

} // namespace shotgun
