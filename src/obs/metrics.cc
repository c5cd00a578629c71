#include "obs/metrics.hh"

#include <algorithm>

namespace shotgun
{
namespace obs
{

using json::Value;

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1])
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::record(std::uint64_t value)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const std::size_t bucket =
        static_cast<std::size_t>(it - bounds_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t
histogramQuantile(const MetricSample &sample, double q)
{
    if (sample.count == 0 || sample.bounds.empty())
        return 0;
    // ceil(q * count) in integers: the rank of the quantile sample,
    // clamped to [1, count].
    const std::uint64_t scaled =
        static_cast<std::uint64_t>(q * 1000000.0);
    std::uint64_t rank = (sample.count * scaled + 999999) / 1000000;
    rank = std::min(std::max<std::uint64_t>(rank, 1), sample.count);

    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
        cumulative += sample.buckets[i];
        if (cumulative >= rank)
            return sample.bounds[std::min(i, sample.bounds.size() - 1)];
    }
    return sample.bounds.back();
}

Counter *
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = entries_[name];
    if (entry.counter == nullptr)
        entry.counter.reset(new Counter());
    return entry.counter.get();
}

Gauge *
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = entries_[name];
    if (entry.gauge == nullptr)
        entry.gauge.reset(new Gauge());
    return entry.gauge.get();
}

Histogram *
Registry::histogram(const std::string &name,
                    std::vector<std::uint64_t> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = entries_[name];
    if (entry.histogram == nullptr)
        entry.histogram.reset(new Histogram(std::move(bounds)));
    return entry.histogram.get();
}

std::vector<MetricSample>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSample> samples;
    samples.reserve(entries_.size());
    // entries_ is a std::map: iteration is already name-sorted. One
    // name can (unusually) host several instrument kinds; each gets
    // its own sample.
    for (const auto &pair : entries_) {
        const Entry &entry = pair.second;
        if (entry.counter != nullptr) {
            MetricSample s;
            s.name = pair.first;
            s.kind = MetricSample::Kind::Counter;
            s.value =
                static_cast<std::int64_t>(entry.counter->value());
            samples.push_back(std::move(s));
        }
        if (entry.gauge != nullptr) {
            MetricSample s;
            s.name = pair.first;
            s.kind = MetricSample::Kind::Gauge;
            s.value = entry.gauge->value();
            samples.push_back(std::move(s));
        }
        if (entry.histogram != nullptr) {
            MetricSample s;
            s.name = pair.first;
            s.kind = MetricSample::Kind::Histogram;
            s.bounds = entry.histogram->bounds();
            s.buckets.reserve(s.bounds.size() + 1);
            for (std::size_t i = 0; i <= s.bounds.size(); ++i)
                s.buckets.push_back(entry.histogram->bucketCount(i));
            s.count = entry.histogram->count();
            s.sum = entry.histogram->sum();
            samples.push_back(std::move(s));
        }
    }
    return samples;
}

Registry &
metrics()
{
    static Registry registry;
    return registry;
}

json::Value
cacheStatsJson(const MemoCacheStats &stats, bool include_backend)
{
    auto number = [](std::size_t value) {
        return Value::number(static_cast<std::uint64_t>(value));
    };
    Value out = Value::object();
    out.set("entries", number(stats.entries));
    out.set("bytes", number(stats.bytes));
    out.set("budget_bytes", number(stats.budgetBytes));
    out.set("hits", number(stats.hits));
    out.set("misses", number(stats.misses));
    out.set("evictions", number(stats.evictions));
    if (include_backend)
        out.set("backend_hits", number(stats.backendHits));
    return out;
}

} // namespace obs
} // namespace shotgun
