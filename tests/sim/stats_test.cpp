/**
 * @file
 * Tests for counters, HistogramData moments and percentiles (the
 * Histogram suite; binning and merge algebra live in
 * tests/obs/histogram_test.cpp), and geomean.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/stats.hh"

namespace cbsim {
namespace {

TEST(Counter, IncrementsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, TracksMoments)
{
    HistogramData h;
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 60u);
    EXPECT_EQ(h.min, 10u);
    EXPECT_EQ(h.max, 30u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, EmptyIsZero)
{
    HistogramData h;
    EXPECT_EQ(h.count, 0u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, PercentileEndpointsAreMinMax)
{
    HistogramData h;
    for (std::uint64_t v : {10u, 20u, 30u, 4000u})
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 4000.0);
}

TEST(Histogram, PercentileIsWithinItsBucket)
{
    // Log2-bucket approximation: p must land within a factor of 2 of
    // the exact value for a uniform sample.
    HistogramData h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.sample(v);
    const double p50 = h.percentile(50);
    EXPECT_GE(p50, 250.0);
    EXPECT_LE(p50, 1000.0);
    const double p99 = h.percentile(99);
    EXPECT_GE(p99, 500.0);
    EXPECT_LE(p99, 2000.0);
}

TEST(Histogram, TailDetectsOutliers)
{
    HistogramData h;
    for (int i = 0; i < 990; ++i)
        h.sample(100);
    for (int i = 0; i < 10; ++i)
        h.sample(100000);
    EXPECT_LT(h.percentile(50), 200.0);
    EXPECT_GT(h.percentile(99.5), 50000.0);
}

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_NEAR(geomean({3.0}), 3.0, 1e-12);
}

TEST(Geomean, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

} // namespace
} // namespace cbsim
