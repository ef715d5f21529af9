/**
 * @file
 * Artifact reporting library behind the cbsim-report CLI
 * (docs/RESULTS.md §Reporting).
 *
 * Consumes the versioned JSON artifacts bench binaries write under
 * bench/results/ and renders them back into paper-shaped tables:
 * each figure's paper view (views.cc), the per-run contention
 * attribution breakdown (schema v4 "contention"), and an old-vs-new
 * artifact diff that flags cost-metric regressions beyond a relative
 * threshold. Library (not main) so tests can drive every mode
 * in-process.
 */

#ifndef CBSIM_REPORT_REPORT_HH
#define CBSIM_REPORT_REPORT_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "report/json_value.hh"

namespace cbsim {

/** Values the §2.1 hand-off bench (ablation_messages) communicates per
 * run; its paper view divides message and flit counts by it. */
constexpr unsigned kHandoffValues = 50;

/**
 * Print the paper view (views.cc) of artifact @p doc's `bench`.
 * @return false, printing nothing, when that bench has no view
 */
bool renderPaperView(const JsonValue& doc, std::ostream& os);

/**
 * The artifact's header line, a warning when any run is not ok, and the
 * paper view of its bench (renderPaperView): the same tables bench_all
 * prints after a sweep.
 * @return false (with a message on @p os) when @p doc is not a cbsim
 *         results artifact or its bench has no view
 */
bool renderFigureTables(const JsonValue& doc, std::ostream& os);

/**
 * Top-@p top_n contended lines of every run carrying a "contention"
 * array: symbol, attributed cycles, and the per-technique columns
 * (invalidations/reacquires, spin re-reads/back-off, parks/wakes).
 * @return false when @p doc is not a cbsim results artifact
 */
bool renderContention(const JsonValue& doc, std::ostream& os,
                      std::size_t top_n);

/**
 * Causal critical-path breakdown of every run carrying a "causal"
 * array (schema v7): per-segment stall cycles, share of the run's
 * total stall cycles, episode counts, attributed flit-hops, and
 * per-episode duration percentiles. Flags runs whose segment cycles do
 * not sum to stall_cycles (a stitcher bug, not an input problem).
 * @return false when @p doc is not a cbsim results artifact
 */
bool renderCausal(const JsonValue& doc, std::ostream& os);

/** Outcome of diffing two artifacts (old vs new). */
struct DiffResult
{
    /**
     * Cost metrics that worsened by more than the threshold, runs that
     * newly fail, and runs that disappeared — anything that should turn
     * CI red. One human-readable line each.
     */
    std::vector<std::string> regressions;

    /** Cost metrics that improved beyond the threshold (informational). */
    std::vector<std::string> improvements;

    /** Structural notes: new runs, schema version changes. */
    std::vector<std::string> notes;

    bool ok() const { return regressions.empty(); }
};

/**
 * Compare two artifacts run-by-run (matched on "key"). Every numeric
 * metric is treated as a cost: a relative increase beyond
 * @p threshold (e.g. 0.02 = 2%) is a regression, a decrease beyond it
 * an improvement. Runs failing in @p new_doc but ok in @p old_doc and
 * runs present only in @p old_doc are regressions.
 */
DiffResult diffArtifacts(const JsonValue& old_doc, const JsonValue& new_doc,
                         double threshold);

/** CLI entry point (argv past the program name). 0 ok, 1 regression/render failure, 2 usage or parse error. */
int reportMain(const std::vector<std::string>& args, std::ostream& os,
               std::ostream& err);

} // namespace cbsim

#endif // CBSIM_REPORT_REPORT_HH
