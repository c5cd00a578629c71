#include "sim/checkpoint.hh"

#include "sim/canonical.hh"

namespace shotgun
{

std::string
checkpointKey(const SimConfig &config, const TraceInfo *trace)
{
    // The measurement bounds pick what is measured *after* the warmup,
    // so they stay out of the key: windowed sub-points and repeated
    // jobs that differ only in measure region share one warmed state.
    SimConfig warmup = config;
    warmup.measureInstructions = 0;
    warmup.window.measureStart = 0;
    warmup.window.measureEnd = 0;
    std::string key = configFingerprint(warmup);
    if (trace != nullptr) {
        // Bind the key to this recording, not just the path: a
        // re-recorded file under the same name must miss.
        key += ":" + std::to_string(trace->traceSeed) + ":" +
               std::to_string(trace->records) + ":" +
               std::to_string(trace->instructions);
    }
    return key;
}

CheckpointCache &
checkpointCache()
{
    static CheckpointCache cache;
    return cache;
}

} // namespace shotgun
