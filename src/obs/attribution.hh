/**
 * @file
 * Contention attribution: bounded, deterministic per-line accounting of
 * where synchronization time goes (docs/OBSERVABILITY.md §Attribution).
 *
 * Every technique feeds the same table: MESI records invalidation
 * fan-out and spin re-acquires per line, VIPS/back-off records LLC spin
 * re-reads and back-off iterations, the callback directory records
 * parks, wakes, wake-evictions and park-duration histograms. Components
 * each own an AttributionTable *shard* (handed out by Chip); Chip folds
 * the shards into one per-line map after the run and attaches the top-N
 * rows — tagged with the workload's line names (SyncLayout::lineNames)
 * when the address is named — to
 * RunResult::contention (schema v4).
 *
 * Determinism contract: a shard is bounded (kDefaultCapacity rows).
 * When a new line arrives at a full shard, the victim is the row with
 * the smallest (weight, address) pair — a total order, so the choice is
 * identical run-to-run and independent of hash iteration order. The
 * cross-shard fold is field-wise addition + histogram merge into an
 * address-ordered map: associative and commutative, so results are
 * byte-identical across sweep `--jobs` counts.
 */

#ifndef CBSIM_OBS_ATTRIBUTION_HH
#define CBSIM_OBS_ATTRIBUTION_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "stats/stats.hh"

namespace cbsim {

/** Per-line attribution accumulators (one row per 64 B line address). */
struct AttributionRow
{
    std::uint64_t cycles = 0;        ///< stall cycles on sync/spin accesses
    std::uint64_t invalidations = 0; ///< MESI: invalidations fanned out
    std::uint64_t reacquires = 0;    ///< MESI: spin re-acquires after inv
    std::uint64_t spinRereads = 0;   ///< VIPS: LLC spin re-reads
    std::uint64_t backoffIters = 0;  ///< VIPS: back-off iterations
    std::uint64_t parks = 0;         ///< cbdir: waiters parked
    std::uint64_t wakes = 0;         ///< cbdir: waiters woken by stores
    std::uint64_t wakeEvictions = 0; ///< cbdir: waiters woken by eviction
    HistogramData parkTicks;         ///< cbdir: park duration per waiter

    /** Eviction weight: total recorded activity on the line. */
    std::uint64_t weight() const;

    /** Field-wise add + histogram merge (associative, commutative). */
    void merge(const AttributionRow& other);

    bool operator==(const AttributionRow&) const = default;
};

/**
 * One bounded shard of the per-line table. Each instrumented component
 * (core, L1, LLC bank) owns one; the hot-path cost with attribution off
 * is a single null-pointer compare at every call site.
 */
class AttributionTable
{
  public:
    static constexpr std::size_t kDefaultCapacity = 64;

    explicit AttributionTable(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {
    }

    /**
     * The row for @p line (line-aligned by the caller or not — the key
     * is aligned here). Inserts, evicting the smallest-(weight, addr)
     * row when the shard is full.
     */
    AttributionRow& row(Addr line);

    std::size_t size() const { return rows_.size(); }
    std::size_t capacity() const { return capacity_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Fold every row into @p out (keyed by line address). */
    void mergeInto(std::map<Addr, AttributionRow>& out) const;

  private:
    std::size_t capacity_;
    std::uint64_t evictions_ = 0;
    std::unordered_map<Addr, AttributionRow> rows_;
};

/**
 * One serialization-ready contention row: a merged AttributionRow plus
 * its address, resolved symbol name, and park-duration percentiles.
 * Field names in the JSON artifact are listed in
 * AttributionTable-adjacent kContentionFields (attribution.cc), which
 * scripts/check_docs.sh parses to enforce docs/RESULTS.md coverage.
 */
struct ContentionRow
{
    Addr addr = 0;
    std::string symbol; ///< "lock0", "barrier0.counter", or hex fallback
    std::uint64_t cycles = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t reacquires = 0;
    std::uint64_t spinRereads = 0;
    std::uint64_t backoffIters = 0;
    std::uint64_t parks = 0;
    std::uint64_t wakes = 0;
    std::uint64_t wakeEvictions = 0;
    double parkP50 = 0.0;
    double parkP95 = 0.0;
    double parkP99 = 0.0;

    bool operator==(const ContentionRow&) const = default;
};

/** JSON field names of one contention[] row, serialization order. */
extern const std::vector<std::string> kContentionFields;

/**
 * Fold @p shards into per-line rows, resolve symbols (lowest labeled
 * address within each line wins; hex fallback), rank by (cycles desc,
 * addr asc) and keep the top @p top_n.
 */
std::vector<ContentionRow>
buildContention(const std::vector<const AttributionTable*>& shards,
                const std::map<Addr, std::string>& symbols,
                std::size_t top_n);

/** Render @p addr as the canonical hex fallback symbol ("0x40000040"). */
std::string contentionHexName(Addr addr);

/**
 * Symbolic name for the line containing @p line: the lowest labeled
 * address within [line, line+64) wins; hex fallback otherwise. Shared
 * by the contention table and the trace exporter's per-line tracks.
 */
std::string contentionSymbolFor(Addr line,
                                const std::map<Addr, std::string>& symbols);

} // namespace cbsim

#endif // CBSIM_OBS_ATTRIBUTION_HH
