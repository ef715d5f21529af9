/**
 * @file
 * Parallel experiment sweep runner.
 *
 * Every figure of the paper is a sweep over dozens of *independent*
 * simulations — each one a self-contained Chip with its own event queue
 * and seeded RNG, so runs are bit-identical regardless of which host
 * thread executes them or in which order. The SweepRunner exploits
 * that: jobs are described declaratively (so their configuration can be
 * serialized alongside their metrics), executed across a worker pool,
 * and collected in submission order. A job that fails (e.g., trips the
 * mutual-exclusion invariant, which fatal()s) is reported as a failed
 * outcome without taking down its siblings.
 */

#ifndef CBSIM_HARNESS_SWEEP_HH
#define CBSIM_HARNESS_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace cbsim {

struct DebugConfig;
class ForkGate;

/** How a sweep job builds its simulation. */
enum class JobKind : std::uint8_t
{
    Profile, ///< runExperiment over a workload Profile
    Micro,   ///< runSyncMicro over one synchronization construct
    Custom,  ///< caller-supplied function (config not serializable)
};

const char* jobKindName(JobKind k);

/**
 * One simulation to run: the full configuration tuple
 * (workload, technique, cores, sync choice, callback-directory size),
 * carried declaratively so the ResultSink can serialize it next to the
 * metrics it produced.
 */
struct SweepJob
{
    std::string key; ///< unique cell name, e.g. "fig20/CLH/CB-One"

    JobKind kind = JobKind::Custom;
    Technique technique = Technique::Invalidation;
    unsigned cores = 64;
    SyncChoice choice = SyncChoice::scalable();
    unsigned cbEntriesPerBank = 4;

    Profile profile; ///< Profile jobs (already scaled)

    SyncMicro micro = SyncMicro::TtasLock; ///< Micro jobs
    unsigned iterations = 0;
    std::uint64_t workBetween = 2500;

    std::function<ExperimentResult()> fn; ///< Custom jobs

    static SweepJob forProfile(std::string key, Profile profile,
                               Technique technique, unsigned cores,
                               SyncChoice choice = SyncChoice::scalable(),
                               unsigned cb_entries_per_bank = 4);

    static SweepJob forMicro(std::string key, SyncMicro micro,
                             Technique technique, unsigned cores,
                             unsigned iterations,
                             std::uint64_t work_between = 2500,
                             unsigned cb_entries_per_bank = 4);

    static SweepJob custom(std::string key,
                           std::function<ExperimentResult()> fn);

    /** Run the simulation this job describes (throws on failure). */
    ExperimentResult execute() const;
};

/** How a job ended (serialized as the results row's "status" field). */
enum class JobStatus : std::uint8_t
{
    Ok,       ///< completed; metrics are valid
    Failed,   ///< threw (fatal/panic/invariant violation); error set
    TimedOut, ///< tripped the per-job wall-clock budget (failed row)
    Skipped,  ///< never ran: the sweep's failure budget was exhausted
    Crashed,  ///< --isolate child died without delivering a payload
};

const char* jobStatusName(JobStatus s);

/** What one job produced. */
struct JobOutcome
{
    bool ok = false;
    JobStatus status = JobStatus::Failed;
    std::string error;       ///< failure message when !ok
    ExperimentResult result; ///< default-initialized when !ok
    double wallMs = 0.0;     ///< host wall-clock (never serialized)

    /** Execution attempts made (1 without --retries; 0 for skipped
     * cells; a journal-replayed cell keeps its producing run's count,
     * decoded from the journaled row). */
    unsigned attempts = 0;

    /** Cell failed every attempt and a repro bundle was written under
     * the quarantine directory (docs/ROBUSTNESS.md). */
    bool quarantined = false;
};

/**
 * Run @p job in this process under @p dcfg (installed as a DebugScope)
 * and classify how it ended: Ok, TimedOut (watchdog TimeoutError) or
 * Failed (any other exception). The one execution path of both the
 * inline sweep and the --isolate child. Leaves `attempts` at 0.
 */
JobOutcome runJob(const SweepJob& job, const DebugConfig& dcfg);

/**
 * Runs a list of SweepJobs across a pool of host threads and returns
 * their outcomes in submission order.
 */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = all hardware threads. */
    explicit SweepRunner(unsigned jobs = 0);

    /**
     * Per-job wall-clock budget in seconds (0 = off, the default).
     * Installed as a thread-scoped DebugConfig override around each
     * job, so every chip the job builds polls it cooperatively
     * (watchdog); a tripped job is recorded as a TimedOut failed row.
     */
    void setJobTimeoutS(double s) { jobTimeoutS_ = s; }

    /**
     * Stop running jobs once this many have failed (0 = never, the
     * default). The set of cells reported Skipped is deterministic: it
     * depends only on submission order — walk the job list in order,
     * counting final failures; every job at or past the point where
     * the count reaches the budget is Skipped. Workers apply a
     * conservative claim-time check (provably a subset of that set) to
     * avoid wasted work, and a post-run reclassification pass makes the
     * reported outcomes exactly match the sequential definition, so
     * `--jobs 1` and `--jobs N` artifacts stay byte-identical even for
     * aborted sweeps (asserted in sweep_runner_test).
     */
    void setMaxFailures(unsigned n) { maxFailures_ = n; }

    /**
     * Run every job in a forked child (`--isolate`): crashes are
     * classified as Crashed rows instead of killing the sweep.
     */
    void setIsolate(bool on) { isolate_ = on; }

    /**
     * Re-run failed/timed-out/crashed cells up to @p n extra times
     * (`--retries N`), with a bounded deterministic backoff between
     * attempts. The final attempt's outcome is the row; `attempts`
     * records how many were made.
     */
    void setRetries(unsigned n) { retries_ = n; }

    /**
     * Quarantine cells that fail every attempt: write a self-contained
     * repro bundle under `<dir>/<sanitized key>/` (the cell's failed
     * artifact row as job.json, forensic dump when one was written,
     * one-line re-run command) and mark the row `quarantined`. Off
     * when @p dir is empty.
     */
    void setQuarantineDir(std::string dir) { quarantineDir_ = std::move(dir); }

    /**
     * Command prefix for the quarantine bundle's re-run line, e.g.
     * "./build/bench/bench_all --smoke --cores 16"; the runner appends
     * `--only-key '<key>'`.
     */
    void setRerunPrefix(std::string prefix)
    {
        rerunPrefix_ = std::move(prefix);
    }

    /** Append a job; returns its submission index. */
    std::size_t add(SweepJob job);

    std::size_t jobCount() const { return jobs_.size(); }
    const SweepJob& job(std::size_t i) const { return jobs_.at(i); }
    unsigned workers() const { return workers_; }

    /**
     * Execute every added job. @p on_done, if set, is called once per
     * job in *completion* order (serialized by an internal mutex) with
     * the submission index — hook for progress output.
     * @return outcomes, index-aligned with the submission order.
     */
    std::vector<JobOutcome>
    run(const std::function<void(std::size_t, const JobOutcome&)>& on_done =
            {});

  private:
    JobOutcome runAttempts(std::size_t i, ForkGate* gate);
    void reclassifyForBudget(std::vector<JobOutcome>& outcomes) const;
    void quarantine(const SweepJob& job, JobOutcome& out) const;

    unsigned workers_;
    double jobTimeoutS_ = 0.0;
    unsigned maxFailures_ = 0;
    bool isolate_ = false;
    unsigned retries_ = 0;
    std::string quarantineDir_;
    std::string rerunPrefix_;
    std::vector<SweepJob> jobs_;
};

} // namespace cbsim

#endif // CBSIM_HARNESS_SWEEP_HH
