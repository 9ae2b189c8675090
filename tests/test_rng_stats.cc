// Rng determinism/distribution sanity and stats helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.h"
#include "sim/stats.h"

using namespace draid::sim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng r(11);
    std::vector<int> hist(8, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++hist[r.nextBounded(8)];
    for (int c : hist)
        EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(9);
    int heads = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        heads += r.nextBool(0.3);
    EXPECT_NEAR(heads, 0.3 * n, 0.03 * n);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(13);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.nextExponential(42.0);
    EXPECT_NEAR(sum / n, 42.0, 2.0);
}

TEST(LatencyRecorder, BasicStats)
{
    LatencyRecorder rec;
    for (Tick t : {10, 20, 30, 40, 50})
        rec.record(Ticks{t});
    EXPECT_EQ(rec.count(), 5u);
    EXPECT_EQ(rec.min().raw(), 10);
    EXPECT_EQ(rec.max().raw(), 50);
    EXPECT_DOUBLE_EQ(rec.mean(), 30.0);
    EXPECT_EQ(rec.percentile(50).raw(), 30);
    EXPECT_EQ(rec.percentile(100).raw(), 50);
}

TEST(LatencyRecorder, EmptyIsZero)
{
    LatencyRecorder rec;
    EXPECT_EQ(rec.count(), 0u);
    EXPECT_EQ(rec.min().raw(), 0);
    EXPECT_EQ(rec.max().raw(), 0);
    EXPECT_DOUBLE_EQ(rec.mean(), 0.0);
    EXPECT_EQ(rec.percentile(99).raw(), 0);
}

TEST(LatencyRecorder, PercentileNearestRank)
{
    LatencyRecorder rec;
    for (Tick t = 1; t <= 100; ++t)
        rec.record(Ticks{t});
    EXPECT_EQ(rec.percentile(99).raw(), 99);
    EXPECT_EQ(rec.percentile(1).raw(), 1);

    // n = 1000 at p99.9: 0.999 * 1000 evaluates to 999.0000000000001,
    // and the epsilon keeps the rank on the 999th order statistic where
    // a plain ceil would step to the 1000th.
    LatencyRecorder thousand;
    for (Tick t = 1; t <= 1000; ++t)
        thousand.record(Ticks{t});
    EXPECT_EQ(thousand.percentile(99.9).raw(), 999);

    // At p50 and p99 the epsilon never matters: nearestRank() agrees with
    // a plain ceil for every n, so one rule serves every caller.
    std::vector<std::size_t> ranks;
    for (std::size_t n = 1; n <= 5000; ++n) {
        ranks.push_back(n);
        for (double p : {50.0, 99.0}) {
            const auto plain = static_cast<std::size_t>(
                std::ceil(p / 100.0 * static_cast<double>(n)));
            ASSERT_EQ(nearestRank(ranks, p), std::max<std::size_t>(plain, 1))
                << "n=" << n << " p=" << p;
        }
    }
}

TEST(LatencyRecorder, PercentileExtremesAreExactMinMax)
{
    LatencyRecorder rec;
    for (Tick t : {17, 3, 99, 42})
        rec.record(Ticks{t});
    // Nearest-rank rounding must not shift the endpoints.
    EXPECT_EQ(rec.percentile(0).raw(), 3);
    EXPECT_EQ(rec.percentile(100).raw(), 99);
}

TEST(LatencyRecorder, P999TailPercentile)
{
    LatencyRecorder rec;
    for (Tick t = 1; t <= 1000; ++t)
        rec.record(Ticks{t});
    // Nearest rank: ceil(0.999 * 1000) = 999 -> the 999th sample.
    EXPECT_EQ(rec.p999().raw(), 999);
    EXPECT_EQ(rec.p999(), rec.percentile(99.9));
    // With few samples the tail collapses onto the max.
    LatencyRecorder small;
    for (Tick t : {10, 20, 30})
        small.record(Ticks{t});
    EXPECT_EQ(small.p999().raw(), 30);
    EXPECT_EQ(LatencyRecorder{}.p999().raw(), 0);
}

TEST(LatencyRecorder, StddevOfKnownDistribution)
{
    LatencyRecorder rec;
    // The classic population example: mean 5, stddev exactly 2.
    for (Tick t : {2, 4, 4, 4, 5, 5, 7, 9})
        rec.record(Ticks{t});
    EXPECT_DOUBLE_EQ(rec.mean(), 5.0);
    EXPECT_DOUBLE_EQ(rec.stddev(), 2.0);
}

TEST(LatencyRecorder, StddevDegenerateCases)
{
    LatencyRecorder rec;
    EXPECT_DOUBLE_EQ(rec.stddev(), 0.0); // empty
    rec.record(Ticks{42});
    EXPECT_DOUBLE_EQ(rec.stddev(), 0.0); // single sample
    rec.record(Ticks{42});
    EXPECT_DOUBLE_EQ(rec.stddev(), 0.0); // identical samples
}

TEST(ThroughputMeter, ComputesBandwidthAndIops)
{
    ThroughputMeter m;
    m.start(Ticks::zero());
    for (int i = 0; i < 1000; ++i)
        m.complete(128 * 1024);
    m.finish(Ticks::sec(1)); // 1 simulated second
    EXPECT_NEAR(m.bandwidthMBps(), 1000.0 * 128 * 1024 / 1e6, 0.1);
    EXPECT_NEAR(m.kiops(), 1.0, 1e-9);
}

TEST(ThroughputMeter, ZeroWindowReportsZero)
{
    ThroughputMeter m;
    m.start(Ticks{100});
    m.complete(4096);
    m.finish(Ticks{100});
    EXPECT_DOUBLE_EQ(m.bandwidthMBps(), 0.0);
    EXPECT_DOUBLE_EQ(m.kiops(), 0.0);
}
