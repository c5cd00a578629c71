/**
 * @file
 * Deterministic pseudo-random number generation for the synthetic
 * workload generator and the simulator. Everything stochastic in the
 * repository flows from one of these generators seeded from a single
 * 64-bit seed, so that identical configurations reproduce identical
 * results bit-for-bit.
 *
 * The engine is xoshiro256** seeded through SplitMix64, both public
 * domain algorithms by Blackman & Vigna.
 */

#ifndef SHOTGUN_COMMON_RANDOM_HH
#define SHOTGUN_COMMON_RANDOM_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace shotgun
{

/** SplitMix64 step; used for seeding and for cheap hash mixing. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mix of a value (for per-branch hashing). */
constexpr std::uint64_t
mix64(std::uint64_t value)
{
    std::uint64_t state = value;
    return splitMix64(state);
}

/**
 * xoshiro256** generator. Small, fast, and good enough statistically
 * for workload synthesis; crucially it is fully deterministic and
 * copyable (generator state is part of simulator state).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed via SplitMix64. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Rng::range with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw with success probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Integer form of chance(p) for a probability drawn many times:
     * draw(threshold(p)) consumes the same next() and returns the same
     * outcome as chance(p). uniform() is u * 2^-53 for the integer
     * u = next() >> 11, so u * 2^-53 < p exactly when u < ceil(p * 2^53)
     * (the product is exact for every p in (0, 1)).
     */
    static std::uint64_t
    threshold(double p)
    {
        if (!(p > 0.0)) // Zero, negative and NaN never succeed.
            return 0;
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** Bernoulli draw against a threshold(p). */
    bool
    draw(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * The full engine state, for checkpointing (generator state
     * capture in windowed simulation). restoreState(state()) resumes
     * the exact same draw sequence.
     */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

    void
    restoreState(const std::array<std::uint64_t, 4> &state)
    {
        for (std::size_t i = 0; i < state.size(); ++i)
            state_[i] = state[i];
    }

    /**
     * Geometric-like draw: number of trials until first failure with
     * continue-probability p, clamped to [min_value, max_value]. Used
     * for basic-block and function sizes (mean ~ min + p/(1-p)). Each
     * trial is a draw(threshold(p)), so it consumes the same next()
     * calls and returns the same value as a loop of chance(p).
     */
    std::uint64_t
    geometric(double p, std::uint64_t min_value, std::uint64_t max_value)
    {
        return geometricDraw(threshold(p), min_value, max_value);
    }

    /** geometric(p, ...) against a threshold(p) computed once. */
    std::uint64_t
    geometricDraw(std::uint64_t threshold, std::uint64_t min_value,
                  std::uint64_t max_value)
    {
        std::uint64_t value = min_value;
        while (value < max_value && draw(threshold))
            ++value;
        return value;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Discrete Zipf(alpha) sampler over n items, built in O(n). Item 0 is
 * the most popular. Used for call-graph callee popularity, which is
 * the main knob controlling a workload's instruction working-set size.
 *
 * A draw is the first item whose cumulative weight is >= u, for the
 * uniform() value u of one next(). A guide table indexed by the top
 * bits of u's 53-bit integer (a bucket per item, at most 4,096)
 * narrows the binary search to the few items whose cumulative weights
 * straddle that bucket, so a draw returns the item a search over all
 * n would, from the same next().
 */
class ZipfSampler
{
  public:
    ZipfSampler() = default;

    /**
     * Build a sampler for n items with skew alpha (0 = uniform; the
     * larger alpha, the more popularity concentrates in few items).
     */
    ZipfSampler(std::size_t n, double alpha) { build(n, alpha); }

    void
    build(std::size_t n, double alpha)
    {
        panic_if(n == 0, "ZipfSampler over zero items");
        cumulative_.resize(n);
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
            cumulative_[i] = total;
        }
        for (auto &c : cumulative_)
            c /= total;

        // A bucket per item, rounded up to a power of two and capped
        // at 2^kMaxGuideBits. Bucket b holds the draws whose top bits
        // are b; guide_[b] is the first item whose cumulative weight
        // reaches the bucket's lowest draw (capped at the last item).
        unsigned bits = 0;
        while (bits < kMaxGuideBits && (std::size_t{1} << bits) < n)
            ++bits;
        shift_ = kDrawBits - bits;
        const std::size_t buckets = std::size_t{1} << bits;
        guide_.resize(buckets + 1);
        std::size_t item = 0;
        for (std::size_t b = 0; b < buckets; ++b) {
            const double lowest =
                static_cast<double>(std::uint64_t{b} << shift_) * 0x1.0p-53;
            while (item + 1 < n && cumulative_[item] < lowest)
                ++item;
            guide_[b] = static_cast<std::uint32_t>(item);
        }
        guide_[buckets] = static_cast<std::uint32_t>(n - 1);
    }

    std::size_t size() const { return cumulative_.size(); }

    /** Draw an item index in [0, n). */
    std::size_t sample(Rng &rng) const { return itemFor(rng.next() >> 11); }

    /**
     * The item a 53-bit draw selects: the first whose cumulative
     * weight is >= draw * 2^-53, or the last item if none is.
     */
    std::size_t
    itemFor(std::uint64_t draw) const
    {
        const double u = static_cast<double>(draw) * 0x1.0p-53;
        // The answer lies between the first item reaching the
        // bucket's lowest draw and the first reaching the next
        // bucket's, which is above u.
        const std::uint64_t bucket = draw >> shift_;
        std::size_t lo = guide_[bucket], hi = guide_[bucket + 1];
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (cumulative_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /** Probability mass of item i (for analytical checks in tests). */
    double
    mass(std::size_t i) const
    {
        panic_if(i >= cumulative_.size(), "ZipfSampler::mass out of range");
        return i == 0 ? cumulative_[0]
                      : cumulative_[i] - cumulative_[i - 1];
    }

    /** Heap bytes of the cumulative weights and the guide table. */
    std::size_t
    footprintBytes() const
    {
        return cumulative_.capacity() * sizeof(double) +
               guide_.capacity() * sizeof(std::uint32_t);
    }

  private:
    static constexpr unsigned kDrawBits = 53;
    static constexpr unsigned kMaxGuideBits = 12; ///< 4,096 buckets.

    std::vector<double> cumulative_;
    std::vector<std::uint32_t> guide_;
    unsigned shift_ = kDrawBits;
};

} // namespace shotgun

#endif // SHOTGUN_COMMON_RANDOM_HH
