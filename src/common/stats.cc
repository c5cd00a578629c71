#include "common/stats.hh"

namespace shotgun
{

double
Histogram::cumulativeFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    std::uint64_t sum = 0;
    for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b)
        sum += buckets_[b];
    if (i >= buckets_.size())
        sum += overflow_;
    return static_cast<double>(sum) / static_cast<double>(total_);
}

std::size_t
Histogram::percentileBucket(double frac) const
{
    std::uint64_t sum = 0;
    const auto threshold =
        static_cast<std::uint64_t>(frac * static_cast<double>(total_));
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        sum += buckets_[b];
        if (sum >= threshold)
            return b;
    }
    return buckets_.size();
}

} // namespace shotgun
