/**
 * @file
 * Statistics primitives: counters, mergeable histograms, geomean.
 *
 * Components own Counter members for the totals something reads and
 * expose them through const accessors; Chip sums those into RunResult
 * and the epoch sampler's probe (docs/OBSERVABILITY.md §Counters).
 */

#ifndef CBSIM_STATS_STATS_HH
#define CBSIM_STATS_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace cbsim {

/** A monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A sampled distribution: count, sum, min, max, mean, and approximate
 * percentiles via power-of-two buckets. Plain data, so distributions
 * can be copied out of a component and *merged* (the attribution fold
 * does this per line): merge is associative and commutative, so the
 * result does not depend on fold order (tests/obs/histogram_test.cpp
 * asserts this). SyncStats samples per-operation sync latencies into
 * one per kind, where the tail quantifies fairness.
 */
struct HistogramData
{
    static constexpr unsigned numBuckets = 64;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0; ///< meaningful only when count > 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, numBuckets> buckets{};

    /** Deterministic bucket index: highest set bit (0 for v <= 1). */
    static unsigned bucketOf(std::uint64_t v);

    void sample(std::uint64_t v);

    /** Fold @p other into this (associative and commutative). */
    void merge(const HistogramData& other);

    double mean() const;

    /**
     * Approximate p-th percentile (p in [0, 100]) from log2 buckets;
     * exact to within a factor of 2 (linear interpolation within the
     * bucket). Returns 0 for an empty histogram.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    bool operator==(const HistogramData&) const = default;
};

/** Geometric mean of @p values; values must be positive. */
double geomean(const std::vector<double>& values);

} // namespace cbsim

#endif // CBSIM_STATS_STATS_HH
