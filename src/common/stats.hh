/**
 * @file
 * A fixed-bucket histogram (Fig 3's region distances and the
 * workload studio's region extents). Components keep their event
 * counts as plain integer fields.
 */

#ifndef SHOTGUN_COMMON_STATS_HH
#define SHOTGUN_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace shotgun
{

/**
 * Fixed-bucket histogram over [0, buckets); samples beyond the last
 * bucket are accumulated in an overflow bucket.
 */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 32)
        : buckets_(buckets, 0)
    {}

    void
    sample(std::size_t value, std::uint64_t weight = 1)
    {
        if (value < buckets_.size())
            buckets_[value] += weight;
        else
            overflow_ += weight;
        total_ += weight;
    }

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }
    std::size_t numBuckets() const { return buckets_.size(); }

    /** Cumulative fraction of samples in buckets [0, i]. */
    double cumulativeFraction(std::size_t i) const;

    /** Smallest bucket index whose cumulative fraction reaches frac. */
    std::size_t percentileBucket(double frac) const;

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        overflow_ = 0;
        total_ = 0;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_COMMON_STATS_HH
