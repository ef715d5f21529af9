/**
 * @file
 * Append-only result journal for crash-safe sweeps (docs/ROBUSTNESS.md
 * §Crash-safe sweeps).
 *
 * While a sweep runs, every *successful* cell is appended to
 * `<artifact>.journal` as one self-contained JSON line:
 *
 *     {"cell": "<jobConfigHash>", "row": "<serialized run row>"}
 *
 * The row is the exact artifact-row string (result_codec.hh), stored as
 * a JSON string literal so the line survives any byte the row contains.
 * On `--resume`, cells whose hash matches a journal line are decoded
 * with parseRunRow() and stored like fresh outcomes; the row codec's
 * fixed point re-serializes them to the journaled bytes, which is what
 * makes an interrupted-then-resumed sweep byte-identical to an
 * uninterrupted one. Failed cells are deliberately NOT journaled: a
 * resume retries them, so transient breakage heals instead of being
 * replayed forever.
 *
 * Appends are flushed line-at-a-time so a SIGKILL between cells loses
 * at most the in-flight line. load() skips a malformed (torn) line, and
 * the first append of a resumed sweep starts on a fresh line, so the
 * rows it adds after a torn tail stay readable by the next load().
 */

#ifndef CBSIM_HARNESS_JOURNAL_HH
#define CBSIM_HARNESS_JOURNAL_HH

#include <fstream>
#include <string>
#include <vector>

namespace cbsim {

/** One replayable journal line. */
struct JournalEntry
{
    std::string cell; ///< jobConfigHash of the producing job
    std::string row;  ///< serialized artifact row (result_codec.hh)
};

class ResultJournal
{
  public:
    explicit ResultJournal(std::string path);

    const std::string& path() const { return path_; }

    /**
     * Append one completed cell and flush it to the OS (so the bytes
     * survive the process being SIGKILLed right after). Consults the
     * harness chaos injector: a `journal-eio` fault makes this append
     * fail exactly as a full disk would, and a `sweep-kill` fault
     * SIGKILLs the whole process after the flush (the scenario
     * `--resume` exists for).
     *
     * @return false when the append failed (injected or real I/O
     *         error); the journal disables itself — the sweep goes on,
     *         only resumability is lost.
     */
    bool append(const std::string& cell_hash, const std::string& row);

    /** Did any append fail? (Surfaced as a warning by the bench.) */
    bool degraded() const { return degraded_; }

    /**
     * Read every well-formed line of the journal at @p path; a torn or
     * corrupt line is skipped (its cell simply runs again). Missing
     * file = empty journal.
     */
    static std::vector<JournalEntry> load(const std::string& path);

    /** Delete the journal file (after the artifact is published). */
    static void removeFile(const std::string& path);

  private:
    std::string path_;
    std::ofstream os_;
    bool opened_ = false;
    bool degraded_ = false;
};

} // namespace cbsim

#endif // CBSIM_HARNESS_JOURNAL_HH
