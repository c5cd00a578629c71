#include "sim/outcome_store.hh"

#include "common/json.hh"
#include "sim/canonical.hh"

namespace shotgun
{

std::string
outcomeKey(const SimConfig &config, const TraceInfo *trace)
{
    json::Writer hashing;
    hashing.beginObject();
    hashing.key("workload");
    writeCanonical(hashing, config.workload);
    if (trace != nullptr) {
        // A recording is its header: the recorded preset, the seed
        // (which also seeds the data side) and the counts, so a
        // re-recorded file under the same path gets a new log.
        hashing.key("trace_preset");
        writeCanonical(hashing, trace->preset);
        hashing.key("trace_seed").number(trace->traceSeed);
        hashing.key("trace_records").number(trace->records);
        hashing.key("trace_instructions").number(trace->instructions);
    } else {
        hashing.key("trace_seed").number(config.traceSeed);
    }
    hashing.key("skip_instructions")
        .number(config.window.skipInstructions);
    hashing.endObject();
    return fingerprintHex(hashing.hash());
}

std::shared_ptr<OutcomeLog>
OutcomeLogStore::acquire(const std::string &key, const CoreParams &params)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::shared_ptr<OutcomeLog> log = logs_[key].lock())
        return log;
    // Forget the logs nobody holds any more, then start this one.
    for (auto it = logs_.begin(); it != logs_.end();)
        it = it->second.expired() ? logs_.erase(it) : std::next(it);
    auto log = std::make_shared<OutcomeLog>(params);
    logs_[key] = log;
    return log;
}

OutcomeLogStore &
outcomeLogs()
{
    static OutcomeLogStore store;
    return store;
}

} // namespace shotgun
