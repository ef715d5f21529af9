#include "stats/stats.hh"

#include <bit>
#include <cmath>

#include "sim/log.hh"

namespace cbsim {

unsigned
HistogramData::bucketOf(std::uint64_t v)
{
    // Bucket index = position of the highest set bit (0 for v <= 1).
    return v <= 1 ? 0
                  : 64 - static_cast<unsigned>(std::countl_zero(v)) - 1;
}

void
HistogramData::sample(std::uint64_t v)
{
    if (count == 0 || v < min)
        min = v;
    if (v > max)
        max = v;
    ++count;
    sum += v;
    ++buckets[bucketOf(v)];
}

void
HistogramData::merge(const HistogramData& other)
{
    if (other.count == 0)
        return;
    if (count == 0 || other.min < min)
        min = other.min;
    if (other.max > max)
        max = other.max;
    count += other.count;
    sum += other.sum;
    for (unsigned b = 0; b < numBuckets; ++b)
        buckets[b] += other.buckets[b];
}

double
HistogramData::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    if (p <= 0.0)
        return static_cast<double>(min);
    if (p >= 100.0)
        return static_cast<double>(max);
    const double target = p / 100.0 * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < numBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        if (static_cast<double>(seen + buckets[b]) >= target) {
            // Interpolate within [2^b, 2^(b+1)).
            const double lo = b == 0 ? 0.0 : std::pow(2.0, b);
            const double hi = std::pow(2.0, b + 1);
            const double frac =
                (target - static_cast<double>(seen)) /
                static_cast<double>(buckets[b]);
            return lo + frac * (hi - lo);
        }
        seen += buckets[b];
    }
    return static_cast<double>(max);
}

double
HistogramData::mean() const
{
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        CBSIM_ASSERT(v > 0.0, "geomean of non-positive value");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace cbsim
