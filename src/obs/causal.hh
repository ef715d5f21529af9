/**
 * @file
 * Causal sync-episode tracing: critical-path decomposition of every
 * core memory-stall window into release→wake→resume segments
 * (docs/OBSERVABILITY.md §Causal tracing).
 *
 * The existing metrics say *how long* waiters stalled (sync
 * percentiles, park_ticks histograms); this layer says *where the time
 * went*. Instrumentation in the core resume path, all three coherence
 * protocols, and the NoC appends plain records into one shard; after
 * the run the tracker stitches them into an exact
 * partition of `stall_cycles` by segment:
 *
 *   - `noc_request`  — issue until the waiter parks (request travel +
 *                      directory service);
 *   - `dir_queue`    — residency in the callback-directory waiter list
 *                      (or the MESI L1 spin-watch, its local analogue);
 *   - `noc_wake`     — wake notification until the core resumes, minus
 *                      the resume tick itself;
 *   - `core_wakeup`  — the final resume tick of a parked episode;
 *   - `spin_poll`    — spin/back-off stalls that never parked, and the
 *                      re-request gaps between consecutive parks;
 *   - `wake_evict_retry` — the re-park stall immediately following a
 *                      spurious wake (capacity eviction, spin-watch
 *                      timeout) of the same (line, core);
 *   - `sync_access`  — sync-marked stalls that never parked;
 *   - `mem_other`    — every remaining stall cycle, making the
 *                      partition exact: Σ causal[].cycles ==
 *                      metrics.stall_cycles (tests/obs/causal_test.cpp
 *                      asserts the reconciliation).
 *
 * Determinism contract: records are appended in dispatch order, and the
 * stitcher re-sorts everything by a total order — (core, tick) works
 * because a core has one outstanding memory op — so the `causal[]`
 * rows are a pure function of the configuration and byte-identical
 * across sweep `--jobs` worker counts (scripts/check_causal.sh). The
 * hot-path cost with tracing off is a single null-pointer compare per
 * site, like attribution (BENCH_pr10.json A/B-verifies ~0%).
 */

#ifndef CBSIM_OBS_CAUSAL_HH
#define CBSIM_OBS_CAUSAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "stats/stats.hh"

namespace cbsim {

/** Segment indices of the stall-cycle partition, serialization order. */
enum class CausalSegment : std::uint8_t
{
    SpinPoll,
    NocRequest,
    DirQueue,
    NocWake,
    CoreWakeup,
    WakeEvictRetry,
    SyncAccess,
    MemOther,
    NumSegments
};

constexpr std::size_t kNumCausalSegments =
    static_cast<std::size_t>(CausalSegment::NumSegments);

/** Segment name as it appears in the causal[] rows. */
const char* causalSegmentName(CausalSegment seg);

/**
 * One serialization-ready causal[] row: a segment of the stall-cycle
 * partition with its contribution count, attributed NoC traffic, and
 * per-contribution latency percentiles. Field names are listed in
 * kCausalFields (causal.cc), which scripts/check_docs.sh parses to
 * enforce docs/RESULTS.md and docs/OBSERVABILITY.md coverage.
 */
struct CausalRow
{
    std::string segment;
    std::uint64_t cycles = 0;   ///< stall cycles in this segment
    std::uint64_t count = 0;    ///< contributing sub-spans
    std::uint64_t flitHops = 0; ///< NoC traffic attributed to the segment
    double p50 = 0.0;           ///< per-sub-span duration percentiles
    double p95 = 0.0;
    double p99 = 0.0;

    bool operator==(const CausalRow&) const = default;
};

/** JSON field names of one causal[] row, serialization order. */
extern const std::vector<std::string> kCausalFields;

/** The append target every instrumented component writes into. */
struct CausalShard
{
    /** A completed core memory-stall window [issue, complete). */
    struct Stall
    {
        Tick issue = 0;
        Tick complete = 0;
        Addr addr = 0;
        CoreId core = invalidCore;
        bool cb = false;   ///< parked on a callback read when it ended
        bool spin = false; ///< spin-marked instruction
        bool sync = false; ///< sync-marked instruction
    };

    /** A waiter entering / leaving a directory queue or spin-watch. */
    struct Transition
    {
        Tick tick = 0;
        Addr key = 0; ///< word or line address; matched line-aligned
        CoreId core = invalidCore;
        bool wake = false;     ///< false = park, true = wake
        bool spurious = false; ///< wake only: eviction / watch timeout
    };

    std::vector<Stall> stalls;
    std::vector<Transition> transitions;
    std::uint64_t requestFlitHops = 0; ///< sync/spin request traffic
    std::uint64_t wakeFlitHops = 0;    ///< wake/invalidation traffic

    void
    recordStall(CoreId core, Addr addr, Tick issue, Tick complete,
                bool cb, bool spin, bool sync)
    {
        stalls.push_back(Stall{issue, complete, addr, core, cb, spin,
                               sync});
    }

    void
    recordPark(Addr key, CoreId core, Tick tick)
    {
        transitions.push_back(Transition{tick, key, core, false, false});
    }

    void
    recordWake(Addr key, CoreId core, Tick tick, bool spurious)
    {
        transitions.push_back(Transition{tick, key, core, true,
                                         spurious});
    }

    void addRequestHops(std::uint64_t h) { requestFlitHops += h; }
    void addWakeHops(std::uint64_t h) { wakeFlitHops += h; }
};

/**
 * The run-wide tracker: owns the CausalShard. Wiring mirrors
 * AttributionTable: each component holds a CausalShard* (null = off),
 * and the Chip calls rows() after the run.
 */
class CausalTracker
{
  public:
    CausalShard& shard() { return shard_; }

    /**
     * Stitch the records into the segment partition. Sorts records by
     * the (core, tick) total order first, so the result does not depend
     * on the order components appended them in.
     */
    std::vector<CausalRow> rows() const;

  private:
    CausalShard shard_;
};

} // namespace cbsim

#endif // CBSIM_OBS_CAUSAL_HH
