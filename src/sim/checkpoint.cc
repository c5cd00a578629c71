#include "sim/checkpoint.hh"

#include <algorithm>

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

CoreCheckpoint
captureCheckpoint(const Core &core, const TraceGenerator *generator,
                  const DecodedTraceCursor *cursor)
{
    CoreCheckpoint cp;
    cp.core = std::make_shared<const Core>(core, nullptr);
    if (generator != nullptr) {
        cp.fromGenerator = true;
        cp.generator = generator->checkpoint();
    } else {
        cp.cursorRecord = cursor->recordsRead();
    }
    cp.bytes = sizeof(CoreCheckpoint) + cp.core->approxStateBytes() +
               cp.generator.footprintBytes();
    return cp;
}

ParkedCore
parkCore(std::unique_ptr<Core> core, std::unique_ptr<TraceSource> source)
{
    ParkedCore parked;
    parked.bytes = core->approxStateBytes() + source->footprintBytes();
    parked.core = std::move(core);
    parked.source = std::move(source);
    return parked;
}

CheckpointCache::CheckpointCache(std::size_t budget_bytes)
    : budget_(budget_bytes),
      checkpoints_(budget_bytes,
                   [](const std::string &, const CoreCheckpoint &cp) {
                       return cp.bytes;
                   })
{
}

StoredState
CheckpointCache::acquire(const std::string &key, std::uint64_t position)
{
    StoredState found;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = parked_.find(key);
        if (it != parked_.end() && it->second.position == position) {
            found.parked = std::move(it->second.state);
            parkedBytes_ -= found.parked.bytes;
            parked_.erase(it);
            ++resumes_;
            return found;
        }
    }
    found.warmed = checkpoints_.tryGet(key);
    return found;
}

void
CheckpointCache::put(const std::string &key, CoreCheckpoint checkpoint)
{
    checkpoints_.put(key, std::move(checkpoint));
    std::lock_guard<std::mutex> lock(mutex_);
    trimLocked();
}

void
CheckpointCache::park(const std::string &key, std::uint64_t position,
                      ParkedCore state)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Parked &slot = parked_[key];
    parkedBytes_ += state.bytes;
    parkedBytes_ -= slot.state.bytes;
    slot.position = position;
    slot.age = parks_++;
    slot.state = std::move(state);
    trimLocked();
}

void
CheckpointCache::trimLocked()
{
    if (budget_ == 0)
        return;
    // A checkpoint under a parked state's key is what that window's
    // successor falls back to; any other goes before a parked state.
    const auto fallback = [this](const std::string &key) {
        return parked_.count(key) != 0;
    };
    while (checkpoints_.stats().bytes + parkedBytes_ > budget_ &&
           checkpoints_.evictOldest(fallback)) {
    }
    const std::size_t warmed = checkpoints_.stats().bytes;
    while (!parked_.empty() && warmed + parkedBytes_ > budget_) {
        auto oldest = std::min_element(
            parked_.begin(), parked_.end(),
            [](const auto &a, const auto &b) {
                return a.second.age < b.second.age;
            });
        parkedBytes_ -= oldest->second.state.bytes;
        parked_.erase(oldest);
        ++parkedEvictions_;
    }
}

MemoCacheStats
CheckpointCache::stats() const
{
    MemoCacheStats stats = checkpoints_.stats();
    std::lock_guard<std::mutex> lock(mutex_);
    stats.entries += parked_.size();
    stats.bytes += parkedBytes_;
    stats.hits += resumes_;
    stats.evictions += parkedEvictions_;
    return stats;
}

CheckpointCache &
checkpointCache()
{
    static CheckpointCache cache;
    return cache;
}

} // namespace shotgun
