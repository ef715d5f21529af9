/**
 * @file
 * The one encoding of a finished sweep cell: its artifact row
 * (docs/RESULTS.md, docs/ROBUSTNESS.md §Crash-safe sweeps).
 *
 * Every consumer of a finished cell reads and writes that row:
 *  - the ResultSink, which splices each cell's row into the "runs"
 *    array of the versioned JSON artifact;
 *  - the ResultJournal, which appends each completed cell's row so an
 *    interrupted sweep can be resumed without re-running it;
 *  - the --isolate subprocess pipe, over which a forked child sends
 *    its cell's row (plus the two host-only counters) to the parent;
 *  - the quarantine bundle, whose job.json is the failed cell's row.
 *
 * parseRunRow() is the row's one inverse, and the determinism contract
 * hinges on one property: serializeRunRow(job, parseRunRow(row)) ==
 * row. Integers round-trip via their raw token text and doubles via
 * JsonWriter::number's shortest-round-trip form, so a resumed or an
 * isolated sweep is byte-identical to a plain one.
 */

#ifndef CBSIM_HARNESS_RESULT_CODEC_HH
#define CBSIM_HARNESS_RESULT_CODEC_HH

#include <string>

#include "harness/sweep.hh"

namespace cbsim {

class JsonValue;

/**
 * One complete artifact row for (job, outcome): the object the
 * ResultSink splices into the "runs" array, serialized standalone at
 * root depth (2-space inner indentation, re-indented on splice). Never
 * carries the host-only RunResult::events and simWallMs.
 */
std::string serializeRunRow(const SweepJob& job, const JobOutcome& outcome);

/**
 * Content hash identifying one sweep cell for the journal: FNV-1a 64
 * over the serialized job config, the artifact schema version, and the
 * sweep-level sizing annotations in @p sweep_meta (so a --smoke
 * journal can never satisfy a full-size sweep even when cell keys
 * match). Hex string, pure function of its inputs.
 */
std::string jobConfigHash(const SweepJob& job, unsigned schema_version,
                          const std::string& sweep_meta);

/**
 * Decode a serialized artifact row: status, ok, error, attempts,
 * quarantined and the full ExperimentResult (without the workload
 * build and the host-only events/simWallMs, which no row carries).
 */
JobOutcome parseRunRow(const JsonValue& row);

} // namespace cbsim

#endif // CBSIM_HARNESS_RESULT_CODEC_HH
