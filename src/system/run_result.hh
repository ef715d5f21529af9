/**
 * @file
 * Aggregated per-run metrics extracted from a finished simulation —
 * the quantities behind every figure in the paper's evaluation.
 */

#ifndef CBSIM_SYSTEM_RUN_RESULT_HH
#define CBSIM_SYSTEM_RUN_RESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/core.hh"
#include "obs/attribution.hh"
#include "obs/causal.hh"
#include "obs/epoch.hh"
#include "stats/stats.hh"

namespace cbsim {

/** One synchronization kind's latency summary. */
struct SyncKindResult
{
    std::uint64_t completions = 0;
    double meanLatency = 0.0;
    std::uint64_t totalLatency = 0;
    std::uint64_t maxLatency = 0;
    double p50Latency = 0.0; ///< median per-operation latency
    double p95Latency = 0.0;
    double p99Latency = 0.0; ///< tail latency (fairness indicator)
};

/** Metrics of one simulation run. */
struct RunResult
{
    Tick cycles = 0;            ///< parallel-section execution time
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcSyncAccesses = 0; ///< Fig. 1 / Fig. 20 metric
    std::uint64_t l1Accesses = 0;
    std::uint64_t cbdirAccesses = 0;
    std::uint64_t flitHops = 0;        ///< network traffic metric
    std::uint64_t packets = 0;
    std::uint64_t memReads = 0;
    std::uint64_t instructions = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t cbWakeups = 0;
    std::uint64_t cbdirEvictions = 0;
    std::uint64_t stallCycles = 0;     ///< total core memory-stall cycles
    std::uint64_t cbBlockedCycles = 0; ///< stalls in blocking callbacks

    /**
     * Kernel events executed by the run's EventQueue, and the host wall
     * time spent inside the event loop (Chip::run's dispatch window,
     * excluding chip construction, workload build, and stats
     * extraction). Host-performance instrumentation only
     * (bench_perf_kernel, bench_all --profile) — deliberately NOT part
     * of scalarFields(), so neither ever enters the deterministic JSON
     * artifacts (docs/RESULTS.md contract).
     */
    std::uint64_t events = 0;
    double simWallMs = 0.0;

    std::array<SyncKindResult, SyncStats::numKinds> sync{};

    /**
     * Per-epoch activity time series; empty unless epoch sampling was
     * enabled (ObsConfig::epochTicks). Serialized as the "epochs"
     * array of schema-v3 artifacts.
     */
    std::vector<EpochRow> epochs;

    /**
     * Top contended lines by attributed stall cycles; empty unless
     * contention attribution was enabled (ObsConfig::attribution).
     * Serialized as the "contention" array of schema-v4 artifacts.
     */
    std::vector<ContentionRow> contention;

    /** Rows kept in `contention` (ranked by cycles desc, addr asc). */
    static constexpr std::size_t kContentionTopN = 16;

    /**
     * Causal critical-path breakdown of stall cycles by sync-episode
     * segment; empty unless causal tracing was enabled
     * (ObsConfig::causal). Always exactly CausalSegment::NumSegments
     * rows in enum order, and the rows' cycles sum to stallCycles.
     * Serialized as the "causal" array of schema-v7 artifacts.
     */
    std::vector<CausalRow> causal;

    /**
     * The raw counters as (snake_case name, member), in artifact
     * order: scalarFields() leads with them, and the result codec
     * reads them back by the same names (the scalars after them derive
     * from sync[]).
     */
    static const std::array<std::pair<const char*, std::uint64_t RunResult::*>,
                            14>
        kCounters;

    /** Extract every metric from a finished run's stats. */
    static RunResult fromStats(const StatsRegistry& stats,
                               const SyncStats& sync,
                               Tick cycles);

    /**
     * Every scalar counter as a (snake_case name, value) pair, in a
     * fixed order. The single source of truth for serializers (the
     * harness ResultSink) and diff tools — extend this when adding a
     * counter so downstream artifacts pick it up automatically.
     */
    std::vector<std::pair<const char*, std::uint64_t>> scalarFields() const;

    std::string summary() const;
};

} // namespace cbsim

#endif // CBSIM_SYSTEM_RUN_RESULT_HH
