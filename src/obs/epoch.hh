/**
 * @file
 * Epoch time-series sampling (docs/OBSERVABILITY.md).
 *
 * The paper's arguments are about *when* traffic happens — an
 * invalidation-based spin hammers the LLC for the whole critical
 * section, a callback run is quiet between releases — but scalar
 * totals flatten that structure away. The EpochSampler cuts simulated
 * time into fixed windows (ObsConfig::epochTicks) and records one row
 * of per-window deltas per epoch, giving LLC-access / traffic /
 * blocked-core curves that land in the results artifacts (schema v3
 * "epochs" array) next to the totals.
 *
 * Sampling rides the EventQueue's epoch hook: boundaries are cut at
 * exact tick multiples between event buckets, so the series is a pure
 * function of the simulation and identical across sweep worker counts.
 */

#ifndef CBSIM_OBS_EPOCH_HH
#define CBSIM_OBS_EPOCH_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace cbsim {

class EventQueue;
class TraceExporter;

/** One epoch window's activity (deltas unless noted). */
struct EpochRow
{
    Tick tick = 0; ///< window end (exclusive); windows are uniform
    std::uint64_t llcAccesses = 0;
    std::uint64_t flitHops = 0;
    std::uint64_t packets = 0;
    std::uint64_t blockedCores = 0; ///< instantaneous, at the boundary

    bool operator==(const EpochRow&) const = default;
};

class EpochSampler
{
  public:
    /**
     * Serialized field names of one epoch row, in emission order
     * (the single source of truth for the ResultSink and for
     * scripts/check_docs.sh's stat-name lint).
     */
    static const std::array<const char*, 5> kFieldNames;

    /**
     * The chip's totals at a boundary: cumulative LLC accesses,
     * flit-hops and packets, plus the cores blocked on memory right
     * now. The sampler turns the cumulative fields into deltas.
     */
    using Probe = std::function<EpochRow()>;

    explicit EpochSampler(Probe probe);

    /** Install the boundary hook on @p eq, cutting every @p epochTicks. */
    void install(EventQueue& eq, Tick epochTicks);

    /** Also mirror per-epoch deltas as trace counter tracks. */
    void setTrace(TraceExporter* trace) { trace_ = trace; }

    const std::vector<EpochRow>& rows() const { return rows_; }

  private:
    void onEpoch(Tick boundary);

    Probe probe_;
    TraceExporter* trace_ = nullptr;
    std::vector<EpochRow> rows_;
    EpochRow last_; ///< cumulative totals at the previous boundary
};

} // namespace cbsim

#endif // CBSIM_OBS_EPOCH_HH
