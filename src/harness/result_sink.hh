/**
 * @file
 * Structured results layer: serializes every run of a sweep (config +
 * RunResult + EnergyBreakdown + message/flit counters) to a versioned
 * JSON artifact under bench/results/, so paper regenerations can be
 * diffed, regressed against, and plotted instead of existing only as
 * pretty-printed tables. Field-by-field schema: docs/RESULTS.md.
 *
 * Determinism contract: the emitted JSON is a pure function of the job
 * list and the simulator — no timestamps, hostnames, wall-clock times,
 * or thread counts — so a --jobs 1 and a --jobs N sweep over the same
 * jobs serialize byte-identically (asserted by tests/harness). Fresh,
 * journal-replayed and --isolate cells all arrive as a JobOutcome and
 * leave as the same serializeRunRow() bytes (result_codec.hh).
 */

#ifndef CBSIM_HARNESS_RESULT_SINK_HH
#define CBSIM_HARNESS_RESULT_SINK_HH

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hh"

namespace cbsim {

/** Collects sweep outcomes and writes the versioned JSON artifact. */
class ResultSink
{
  public:
    /**
     * Bump when the JSON layout changes; emitted as schema_version.
     * v2: per-run "status" string ("ok"/"failed"/"timeout"/"skipped")
     *     next to the "ok" bool (docs/RESULTS.md).
     * v3: sync-latency percentiles (metrics sync_*_p50/p95/p99 and
     *     per-kind p50/p95 rows) and the optional per-run "epochs"
     *     time-series array (docs/OBSERVABILITY.md).
     * v4: the optional per-run "contention" array — top contended
     *     lines with per-technique attribution columns and symbolic
     *     names (docs/OBSERVABILITY.md §Attribution).
     * v5: crash-safe sweeps (docs/ROBUSTNESS.md §Crash-safe sweeps) —
     *     per-run "attempts" count and "quarantined" flag, and the
     *     "crashed" status for --isolate children that died without
     *     delivering a result.
     * v6: a kernel-selector metric and job-config field for the
     *     since-removed parallel event kernel.
     * v7: the optional per-run "causal" array — critical-path
     *     breakdown of stall cycles into sync-episode segments
     *     (docs/OBSERVABILITY.md §Causal tracing).
     * v8: the two v6 kernel-selector fields removed with that kernel
     *     (docs/DESIGN.md §"Why there is one kernel").
     */
    static constexpr unsigned kSchemaVersion = 8;

    explicit ResultSink(std::string bench_name);

    /** Attach a sweep-level string annotation (emitted in order). */
    void meta(const std::string& key, const std::string& value);

    /** Record one finished job, in submission order: serializes its
     * artifact row (result_codec.hh) right away. */
    void add(const SweepJob& job, const JobOutcome& outcome);

    std::size_t size() const { return rows_.size(); }
    bool allOk() const { return allOk_; }

    void write(std::ostream& os) const;
    std::string toJson() const;

    /**
     * Write to @p path atomically: serialize to `<path>.tmp` in the
     * same directory, then rename(2) over the target — a sweep killed
     * mid-publish leaves either the old artifact or the new one, never
     * a torn file. Creates parent directories as needed. Fatal on I/O
     * failure.
     */
    void writeFile(const std::string& path) const;

  private:
    std::string benchName_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<std::string> rows_;
    bool allOk_ = true;
};

} // namespace cbsim

#endif // CBSIM_HARNESS_RESULT_SINK_HH
