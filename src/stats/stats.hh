/**
 * @file
 * Lightweight named-statistics package (counters, histograms, registry).
 *
 * Components own Counter/Histogram members and register them in a
 * StatsRegistry under hierarchical names; RunResult and the epoch
 * sampler (src/obs) read live values back through it
 * (docs/OBSERVABILITY.md).
 */

#ifndef CBSIM_STATS_STATS_HH
#define CBSIM_STATS_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
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
 * The plain-data state of a histogram: moments plus power-of-two
 * buckets. Separated from the live Histogram so distributions can be
 * copied out of a component and *merged* (the attribution fold does
 * this per line): merge is associative and commutative, so the result
 * does not depend on fold order (tests/obs/histogram_test.cpp asserts
 * this).
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

/**
 * Samples a distribution: count, sum, min, max, mean, and approximate
 * percentiles via power-of-two buckets. Used for per-operation
 * latencies (e.g., lock-acquire latency), where the tail quantifies
 * fairness: a FIFO hand-off (CLH, CB-One round-robin) has a tight
 * p99/mean ratio while an unfair T&T&S under invalidation does not.
 */
class Histogram
{
  public:
    Histogram() = default;

    void sample(std::uint64_t v) { data_.sample(v); }
    void reset() { data_ = HistogramData{}; }

    /** Fold another histogram's samples into this one. */
    void merge(const Histogram& other) { data_.merge(other.data_); }

    /** Snapshot of the full distribution state (mergeable). */
    const HistogramData& data() const { return data_; }

    std::uint64_t count() const { return data_.count; }
    std::uint64_t sum() const { return data_.sum; }
    std::uint64_t min() const { return data_.count ? data_.min : 0; }
    std::uint64_t max() const { return data_.max; }
    double mean() const { return data_.mean(); }

    /** See HistogramData::percentile. */
    double percentile(double p) const { return data_.percentile(p); }

  private:
    HistogramData data_;
};

class StatsRegistry;

/**
 * A registration handle for one level of the stat-name hierarchy.
 * Cheap to copy; valid as long as the registry it came from.
 */
class StatsScope
{
  public:
    /** Child scope: names gain "<name>." below this scope's prefix. */
    StatsScope scope(const std::string& name) const;

    void add(const std::string& name, Counter& c) const;
    void add(const std::string& name, Histogram& h) const;

    /** Fully-qualified name of @p name under this scope. */
    std::string qualify(const std::string& name) const;

    const std::string& prefix() const { return prefix_; }

  private:
    friend class StatsRegistry;
    StatsScope(StatsRegistry& reg, std::string prefix)
        : reg_(&reg), prefix_(std::move(prefix))
    {}

    StatsRegistry* reg_;
    std::string prefix_; ///< "" at the root, else "llc.3." (trailing dot)
};

/**
 * A registry mapping dotted stat names ("llc.3.accesses") to live
 * counters and histograms owned by components.
 *
 * A component receives a StatsScope naming its position in the
 * hierarchy ("llc.3") and registers members relative to it —
 * scope.add("accesses", c) yields "llc.3.accesses", scope.scope("cbdir")
 * hands a child component its own sub-scope — so every name follows
 * <subsystem>.<instance>.<stat>.
 */
class StatsRegistry
{
  public:
    /** The root scope (names registered verbatim). */
    StatsScope root() { return StatsScope(*this, ""); }

    /** A top-level scope, e.g. scope("core.0"). */
    StatsScope scope(const std::string& prefix)
    {
        return root().scope(prefix);
    }

    /** Register a counter under @p name; it must outlive the registry. */
    void add(const std::string& name, Counter& c);
    /** Register a histogram under @p name. */
    void add(const std::string& name, Histogram& h);

    /** Value of a registered counter; fatal if missing. */
    std::uint64_t counter(const std::string& name) const;
    /** Access a registered histogram; fatal if missing. */
    const Histogram& histogram(const std::string& name) const;

    bool hasCounter(const std::string& name) const;

    /**
     * Sum of every counter named "<prefix>...<suffix>" — the scalar
     * aggregation behind RunResult ("llc.", ".accesses" sums every
     * bank's access counter).
     */
    std::uint64_t sumWhere(const std::string& prefix,
                           const std::string& suffix) const;

  private:
    std::map<std::string, Counter*> counters_;
    std::map<std::string, Histogram*> histograms_;
};

/** Geometric mean of @p values; values must be positive. */
double geomean(const std::vector<double>& values);

} // namespace cbsim

#endif // CBSIM_STATS_STATS_HH
