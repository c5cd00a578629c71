/**
 * @file
 * Unit tests for src/common: types, RNG, saturating counters, stats
 * and the table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/parse.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace shotgun
{
namespace
{

TEST(TypesTest, BlockHelpers)
{
    EXPECT_EQ(blockAlign(0x1000), 0x1000u);
    EXPECT_EQ(blockAlign(0x103f), 0x1000u);
    EXPECT_EQ(blockAlign(0x1040), 0x1040u);
    EXPECT_EQ(blockNumber(0x1000), 0x40u);
    EXPECT_EQ(blockNumber(0x103f), 0x40u);
    EXPECT_EQ(blockToAddr(blockNumber(0x1234)), 0x1200u);
    EXPECT_EQ(kInstrsPerBlock, 16u);
}

TEST(TypesTest, BranchTypePredicates)
{
    EXPECT_FALSE(isBranch(BranchType::None));
    EXPECT_TRUE(isBranch(BranchType::Conditional));
    EXPECT_TRUE(isBranch(BranchType::Return));

    EXPECT_FALSE(isUnconditional(BranchType::None));
    EXPECT_FALSE(isUnconditional(BranchType::Conditional));
    EXPECT_TRUE(isUnconditional(BranchType::Jump));
    EXPECT_TRUE(isUnconditional(BranchType::Call));
    EXPECT_TRUE(isUnconditional(BranchType::Return));
    EXPECT_TRUE(isUnconditional(BranchType::Trap));
    EXPECT_TRUE(isUnconditional(BranchType::TrapReturn));

    EXPECT_TRUE(isCallType(BranchType::Call));
    EXPECT_TRUE(isCallType(BranchType::Trap));
    EXPECT_FALSE(isCallType(BranchType::Return));

    EXPECT_TRUE(isReturnType(BranchType::Return));
    EXPECT_TRUE(isReturnType(BranchType::TrapReturn));
    EXPECT_FALSE(isReturnType(BranchType::Call));

    // Regions span two unconditional branches: all unconditional
    // types close a region, conditionals do not (Sec 3.1).
    EXPECT_TRUE(endsRegion(BranchType::Call));
    EXPECT_TRUE(endsRegion(BranchType::Return));
    EXPECT_TRUE(endsRegion(BranchType::Jump));
    EXPECT_FALSE(endsRegion(BranchType::Conditional));
    EXPECT_FALSE(endsRegion(BranchType::None));
}

TEST(TypesTest, BranchTypeNames)
{
    EXPECT_STREQ(branchTypeName(BranchType::Call), "call");
    EXPECT_STREQ(branchTypeName(BranchType::TrapReturn), "trap-return");
}

TEST(ParseTest, ByteSizes)
{
    // The daemons' --cache-bytes/--cache-max-bytes grammar.
    std::uint64_t bytes = 0;
    EXPECT_TRUE(parseByteSize("600", bytes));
    EXPECT_EQ(bytes, 600u);
    EXPECT_TRUE(parseByteSize("64M", bytes));
    EXPECT_EQ(bytes, 64u << 20);
    EXPECT_TRUE(parseByteSize("2G", bytes));
    EXPECT_EQ(bytes, 2ull << 30);
    EXPECT_TRUE(parseByteSize("16777215G", bytes));
    EXPECT_EQ(bytes, 16777215ull << 30);
    for (const char *bad : {"", "0", "0K", "K", "12k", "1.5M", "-1",
                            "1e6", "17179869184G",
                            "18446744073709551616"})
        EXPECT_FALSE(parseByteSize(bad, bytes)) << bad;
}

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += (a.next() == b.next());
    EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInRange)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 7);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 7u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 7);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ThresholdDrawMatchesChance)
{
    const double probabilities[] = {
        0.0,  std::numeric_limits<double>::denorm_min(),
        0.02, std::nextafter(0.5, 0.0),
        1.0,  1.5,
        -0.25, std::numeric_limits<double>::quiet_NaN(),
    };
    constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
    for (const double p : probabilities) {
        const std::uint64_t t = Rng::threshold(p);
        // Exact at the boundary: u * 2^-53 < p iff u < t, for the
        // 53-bit draws u around t and at both ends of the range.
        for (const std::uint64_t u :
             {std::uint64_t{0}, std::uint64_t{1}, t > 0 ? t - 1 : 0, t,
              t + 1, kTop - 1}) {
            if (u >= kTop)
                continue;
            EXPECT_EQ(u < t, static_cast<double>(u) * 0x1.0p-53 < p)
                << "p=" << p << " u=" << u;
        }
        // Same outcomes, same draws consumed.
        Rng a(21), b(21);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(a.draw(t), b.chance(p)) << "p=" << p << " i=" << i;
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(RngTest, GeometricBounds)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.geometric(0.8, 3, 16);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 16u);
    }
}

TEST(RngTest, GeometricMatchesChanceLoop)
{
    // geometric() draws against threshold(p); the loop below is its
    // definition as a chance(p) loop. Same values, same draws consumed.
    const double probabilities[] = {
        0.0, 1e-9, 0.5, 0.88, 1.0, 1.5,
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (const double p : probabilities) {
        for (const auto &[lo, hi] :
             {std::pair<std::uint64_t, std::uint64_t>{3, 16}, {2, 48},
              {5, 5}, {7, 0}}) {
            Rng a(31), b(31);
            for (int i = 0; i < 5000; ++i) {
                std::uint64_t want = lo;
                while (want < hi && b.chance(p))
                    ++want;
                ASSERT_EQ(a.geometric(p, lo, hi), want)
                    << "p=" << p << " [" << lo << "," << hi << "] i=" << i;
            }
            EXPECT_EQ(a.state(), b.state()) << "p=" << p;
        }
    }
}

TEST(RngTest, GeometricMean)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(0.5, 0, 1000000));
    // Mean of trials-before-failure with p=0.5 is p/(1-p) = 1.
    EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(ZipfTest, UniformWhenAlphaZero)
{
    ZipfSampler z(10, 0.0);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_NEAR(z.mass(i), 0.1, 1e-9);
}

TEST(ZipfTest, MassDecreasesWithRank)
{
    ZipfSampler z(100, 1.0);
    for (std::size_t i = 1; i < 100; ++i)
        EXPECT_GT(z.mass(i - 1), z.mass(i));
}

TEST(ZipfTest, SampleMatchesMass)
{
    ZipfSampler z(50, 0.9);
    Rng rng(23);
    std::vector<int> counts(50, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    // Spot-check the head of the distribution.
    for (std::size_t i = 0; i < 5; ++i) {
        const double measured = static_cast<double>(counts[i]) / n;
        EXPECT_NEAR(measured, z.mass(i), 0.01) << "rank " << i;
    }
}

TEST(ZipfTest, SkewConcentratesMass)
{
    ZipfSampler flat(1000, 0.3), skewed(1000, 1.2);
    double flat_top = 0, skew_top = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        flat_top += flat.mass(i);
        skew_top += skewed.mass(i);
    }
    EXPECT_GT(skew_top, flat_top * 2);
}

/** The cumulative weights ZipfSampler(n, alpha) draws against. */
std::vector<double>
zipfCumulative(std::size_t n, double alpha)
{
    std::vector<double> cumulative(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cumulative[i] = total;
    }
    for (auto &c : cumulative)
        c /= total;
    return cumulative;
}

/** The item a draw selects by binary search over all n weights. */
std::size_t
zipfReference(const std::vector<double> &cumulative, std::uint64_t draw)
{
    const double u = static_cast<double>(draw) * 0x1.0p-53;
    std::size_t lo = 0, hi = cumulative.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cumulative[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

TEST(ZipfTest, GuidedSampleMatchesBinarySearch)
{
    constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
    for (const std::size_t n : {1, 2, 3, 64, 2625, 5000}) {
        for (const double alpha : {0.0, 0.8125, 1.0984, 1.8125}) {
            const ZipfSampler z(n, alpha);
            const std::vector<double> cumulative = zipfCumulative(n, alpha);
            // Every guide bucket's boundary (a sampler has at most
            // 4,096 buckets, a power of two, so its boundaries are
            // among these), and every item's: the first draw that
            // selects it or an earlier item, and the one below.
            std::vector<std::uint64_t> draws;
            for (std::uint64_t k = 0; k <= 4096; ++k)
                draws.push_back(k << 41);
            for (const double c : cumulative)
                draws.push_back(static_cast<std::uint64_t>(
                    std::ceil(c * 0x1.0p53)));
            for (const std::uint64_t draw : draws) {
                for (const std::uint64_t d : {draw, draw - 1}) {
                    if (draw == 0 && d != draw)
                        continue;
                    if (d >= kTop)
                        continue;
                    ASSERT_EQ(z.itemFor(d), zipfReference(cumulative, d))
                        << "n=" << n << " alpha=" << alpha << " draw=" << d;
                }
            }
            // Seeded draws through sample(): same items, same draws.
            Rng a(n * 7 + 1), b(n * 7 + 1);
            for (int i = 0; i < 100000; ++i) {
                const std::uint64_t draw = b.next() >> 11;
                ASSERT_EQ(z.sample(a), zipfReference(cumulative, draw))
                    << "n=" << n << " alpha=" << alpha << " i=" << i;
            }
            EXPECT_EQ(a.state(), b.state());
        }
    }
}

TEST(SplitMixTest, MixIsStable)
{
    // mix64 must be a pure function: the workload generator relies on
    // it for reproducible seeding.
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(SatCounterTest, SaturatesHigh)
{
    SatCounter c(2);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.predictTaken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounterTest, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(c.predictTaken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounterTest, Hysteresis)
{
    SatCounter c(2, 3); // strongly taken
    c.update(false);    // 2: still predicts taken
    EXPECT_TRUE(c.predictTaken());
    c.update(false);    // 1: now not taken
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounterTest, WeakTakenInit)
{
    SatCounter c(3);
    c.set(c.weakTaken());
    EXPECT_TRUE(c.predictTaken());
    c.update(false);
    EXPECT_FALSE(c.predictTaken());
}

TEST(HistogramTest, BucketsAndOverflow)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1, 2);
    h.sample(3);
    h.sample(9); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(HistogramTest, CumulativeFraction)
{
    Histogram h(10);
    for (std::size_t i = 0; i < 10; ++i)
        h.sample(i, 10);
    EXPECT_NEAR(h.cumulativeFraction(4), 0.5, 1e-9);
    EXPECT_NEAR(h.cumulativeFraction(9), 1.0, 1e-9);
}

TEST(HistogramTest, PercentileBucket)
{
    Histogram h(10);
    for (std::size_t i = 0; i < 10; ++i)
        h.sample(i, 10);
    EXPECT_EQ(h.percentileBucket(0.5), 4u);
    EXPECT_EQ(h.percentileBucket(0.95), 9u);
}

TEST(TextTableTest, AlignsColumns)
{
    TextTable t("demo");
    t.row().cell("name").cell("value");
    t.row().cell("x").cell(1.5, 1);
    t.row().cell("longer").cell(std::uint64_t(42));
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(TextTableTest, PercentCell)
{
    TextTable t;
    t.row().cell("cov");
    t.row().percentCell(0.683, 1);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("68.3%"), std::string::npos);
}

} // namespace
} // namespace shotgun
