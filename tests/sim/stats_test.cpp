/**
 * @file
 * Tests for counters, histograms, flat registry registration, and
 * geomean. The gtest suite name StatSet predates the merge into
 * StatsRegistry.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/log.hh"
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
    Histogram h;
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 60u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 30u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(StatSet, RegistersAndReads)
{
    StatsRegistry s;
    Counter c;
    s.add("llc.0.accesses", c);
    c.inc(7);
    EXPECT_EQ(s.counter("llc.0.accesses"), 7u);
    EXPECT_TRUE(s.hasCounter("llc.0.accesses"));
    EXPECT_FALSE(s.hasCounter("nope"));
}

TEST(StatSet, DuplicateRegistrationPanics)
{
    StatsRegistry s;
    Counter a, b;
    s.add("x", a);
    EXPECT_THROW(s.add("x", b), PanicError);
}

TEST(StatSet, UnknownCounterIsFatal)
{
    StatsRegistry s;
    EXPECT_THROW(s.counter("missing"), FatalError);
}

TEST(Histogram, PercentileOfEmptyIsZero)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, PercentileEndpointsAreMinMax)
{
    Histogram h;
    for (std::uint64_t v : {10u, 20u, 30u, 4000u})
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 4000.0);
}

TEST(Histogram, PercentileIsWithinItsBucket)
{
    // Log2-bucket approximation: p must land within a factor of 2 of
    // the exact value for a uniform sample.
    Histogram h;
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
    Histogram h;
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
