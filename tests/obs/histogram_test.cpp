/**
 * @file
 * Histogram-core tests (docs/OBSERVABILITY.md): deterministic binning,
 * merge algebra (associative + commutative, so sweep aggregation is
 * byte-identical across worker counts), and percentile edge cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/stats.hh"

namespace cbsim {
namespace {

TEST(HistogramData, BinningIsTheHighestSetBit)
{
    EXPECT_EQ(HistogramData::bucketOf(0), 0u);
    EXPECT_EQ(HistogramData::bucketOf(1), 0u);
    EXPECT_EQ(HistogramData::bucketOf(2), 1u);
    EXPECT_EQ(HistogramData::bucketOf(3), 1u);
    EXPECT_EQ(HistogramData::bucketOf(4), 2u);
    EXPECT_EQ(HistogramData::bucketOf(1023), 9u);
    EXPECT_EQ(HistogramData::bucketOf(1024), 10u);
    EXPECT_EQ(HistogramData::bucketOf(std::uint64_t{1} << 63), 63u);
    EXPECT_EQ(
        HistogramData::bucketOf(std::numeric_limits<std::uint64_t>::max()),
        63u);
}

TEST(HistogramData, BinningIsDeterministicAcrossRepeats)
{
    // Same samples, same order => identical plain-data state (the
    // property the smoke-golden byte comparison ultimately rests on).
    const std::vector<std::uint64_t> samples{3, 0, 17, 17, 1 << 20, 5};
    HistogramData a, b;
    for (auto v : samples)
        a.sample(v);
    for (auto v : samples)
        b.sample(v);
    EXPECT_EQ(a, b);
}

/** The canonical sample set the merge tests slice up. */
std::vector<std::uint64_t>
sampleSet()
{
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 0; i < 400; ++i)
        v.push_back((i * 2654435761u) % 100000); // deterministic spread
    return v;
}

TEST(HistogramData, MergeIsCommutative)
{
    const auto samples = sampleSet();
    HistogramData a, b;
    for (std::size_t i = 0; i < samples.size(); ++i)
        (i % 2 == 0 ? a : b).sample(samples[i]);

    HistogramData ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.count, samples.size());
}

TEST(HistogramData, MergeIsAssociative)
{
    const auto samples = sampleSet();
    HistogramData h[3];
    for (std::size_t i = 0; i < samples.size(); ++i)
        h[i % 3].sample(samples[i]);

    HistogramData left = h[0]; // (0+1)+2
    left.merge(h[1]);
    left.merge(h[2]);
    HistogramData right = h[1]; // 0+(1+2)
    right.merge(h[2]);
    HistogramData r0 = h[0];
    r0.merge(right);
    EXPECT_EQ(left, r0);
}

TEST(HistogramData, ShardedMergeMatchesSerialByteForByte)
{
    // jobs=1 vs jobs=4: one histogram fed serially must equal four
    // per-worker shards folded together, whatever the fold order — the
    // invariant that lets sweep workers keep private distributions.
    const auto samples = sampleSet();
    HistogramData serial;
    for (auto v : samples)
        serial.sample(v);

    HistogramData shard[4];
    for (std::size_t i = 0; i < samples.size(); ++i)
        shard[i % 4].sample(samples[i]);

    HistogramData forward; // 0,1,2,3
    for (const auto& s : shard)
        forward.merge(s);
    HistogramData backward; // 3,2,1,0
    for (int i = 3; i >= 0; --i)
        backward.merge(shard[i]);

    EXPECT_EQ(forward, serial);
    EXPECT_EQ(backward, serial);
}

TEST(HistogramData, MergeWithEmptyIsIdentity)
{
    HistogramData a, empty;
    a.sample(42);
    a.sample(7);
    const HistogramData before = a;
    a.merge(empty);
    EXPECT_EQ(a, before);

    HistogramData onto = empty;
    onto.merge(before);
    EXPECT_EQ(onto, before);
}

TEST(HistogramData, PercentileOfEmptyIsZero)
{
    HistogramData h;
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

TEST(HistogramData, PercentileSingleBucketInterpolates)
{
    // All mass in bucket 0 ([0, 2)): every interior percentile lands
    // inside that bucket's range.
    HistogramData h;
    for (int i = 0; i < 10; ++i)
        h.sample(1);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0); // p<=0 returns min
    const double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1.0); // p>=100 returns max
}

TEST(HistogramData, PercentileSaturatingMaxBucket)
{
    // Samples in the top bucket (bit 63): interpolation must not
    // overflow or return nonsense; endpoints stay exact.
    HistogramData h;
    const std::uint64_t top = std::uint64_t{1} << 63;
    h.sample(top);
    h.sample(top + 1);
    h.sample(std::numeric_limits<std::uint64_t>::max());
    EXPECT_DOUBLE_EQ(h.percentile(0.0), static_cast<double>(top));
    EXPECT_DOUBLE_EQ(
        h.percentile(100.0),
        static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
    const double p50 = h.percentile(50.0);
    EXPECT_GE(p50, static_cast<double>(top));
    EXPECT_LE(p50, std::pow(2.0, 64));
}

TEST(HistogramData, PercentileIsMonotoneInP)
{
    HistogramData h;
    for (std::uint64_t v = 1; v <= 2000; ++v)
        h.sample(v);
    double prev = h.percentile(0.0);
    for (double p = 5.0; p <= 100.0; p += 5.0) {
        const double cur = h.percentile(p);
        EXPECT_GE(cur, prev) << "p=" << p;
        prev = cur;
    }
}

} // namespace
} // namespace cbsim
