#include "harness/sweep.hh"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <latch>
#include <mutex>
#include <thread>

#include "debug/debug_config.hh"
#include "debug/forensics.hh"
#include "harness/harness_faults.hh"
#include "harness/result_codec.hh"
#include "harness/subprocess.hh"
#include "sim/log.hh"

namespace cbsim {

const char*
jobKindName(JobKind k)
{
    switch (k) {
      case JobKind::Profile: return "profile";
      case JobKind::Micro: return "micro";
      case JobKind::Custom: return "custom";
      default: return "?";
    }
}

const char*
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timeout";
      case JobStatus::Skipped: return "skipped";
      case JobStatus::Crashed: return "crashed";
      default: return "?";
    }
}

SweepJob
SweepJob::forProfile(std::string key, Profile profile, Technique technique,
                     unsigned cores, SyncChoice choice,
                     unsigned cb_entries_per_bank)
{
    SweepJob j;
    j.key = std::move(key);
    j.kind = JobKind::Profile;
    j.profile = std::move(profile);
    j.technique = technique;
    j.cores = cores;
    j.choice = choice;
    j.cbEntriesPerBank = cb_entries_per_bank;
    return j;
}

SweepJob
SweepJob::forMicro(std::string key, SyncMicro micro, Technique technique,
                   unsigned cores, unsigned iterations,
                   std::uint64_t work_between, unsigned cb_entries_per_bank)
{
    SweepJob j;
    j.key = std::move(key);
    j.kind = JobKind::Micro;
    j.micro = micro;
    j.technique = technique;
    j.cores = cores;
    j.iterations = iterations;
    j.workBetween = work_between;
    j.cbEntriesPerBank = cb_entries_per_bank;
    return j;
}

SweepJob
SweepJob::custom(std::string key, std::function<ExperimentResult()> fn)
{
    SweepJob j;
    j.key = std::move(key);
    j.kind = JobKind::Custom;
    j.fn = std::move(fn);
    return j;
}

ExperimentResult
SweepJob::execute() const
{
    switch (kind) {
      case JobKind::Profile:
        return runExperiment(profile, technique, cores, choice,
                             cbEntriesPerBank);
      case JobKind::Micro:
        return runSyncMicro(micro, technique, cores, iterations,
                            workBetween, cbEntriesPerBank);
      case JobKind::Custom:
        if (!fn)
            fatal("custom sweep job '", key, "' has no function");
        return fn();
    }
    // Reaching here means the enum itself is corrupt — a simulator bug,
    // not a user/config error (log.hh contract).
    panic("corrupt sweep job kind");
}

bool
sameRun(const SweepJob& a, const SweepJob& b)
{
    return a.kind != JobKind::Custom && b.kind == a.kind &&
           a.technique == b.technique && a.cores == b.cores &&
           a.choice == b.choice &&
           a.cbEntriesPerBank == b.cbEntriesPerBank &&
           a.profile == b.profile && a.micro == b.micro &&
           a.iterations == b.iterations &&
           a.workBetween == b.workBetween;
}

JobOutcome
runJob(const SweepJob& job, const DebugConfig& dcfg)
{
    DebugScope scope(dcfg);
    JobOutcome out;
    try {
        out.result = job.execute();
        out.ok = true;
        out.status = JobStatus::Ok;
    } catch (const TimeoutError& e) {
        out.status = JobStatus::TimedOut;
        out.error = e.what();
    } catch (const std::exception& e) {
        out.status = JobStatus::Failed;
        out.error = e.what();
    }
    return out;
}

SweepRunner::SweepRunner(unsigned jobs) : workers_(jobs)
{
    if (workers_ == 0) {
        workers_ = std::max(1u, std::thread::hardware_concurrency());
    }
}

std::size_t
SweepRunner::add(SweepJob job)
{
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

JobOutcome
SweepRunner::runAttempts(std::size_t i, ForkGate* gate)
{
    using Clock = std::chrono::steady_clock;
    const SweepJob& job = jobs_[i];

    // Thread-scoped debug override: every chip this job builds (inline
    // or in a forked child) inherits the job's key as its forensic
    // label and the sweep's per-job wall-clock budget.
    DebugConfig dcfg = DebugConfig::current();
    dcfg.label = job.key;
    if (jobTimeoutS_ > 0.0)
        dcfg.wallTimeoutS = jobTimeoutS_;

    HarnessFaultInjector* faults = harnessFaults();
    JobOutcome out;
    const auto start = Clock::now();
    for (unsigned attempt = 0;; ++attempt) {
        out = JobOutcome();
        if (faults != nullptr && faults->transientFailureNow(attempt)) {
            // Chaos `transient-once`: the attempt "fails" without
            // running — deterministic, and exactly what a flaky host
            // hiccup looks like to the retry loop.
            out.ok = false;
            out.status = JobStatus::Failed;
            out.error = "job '" + job.key +
                        "': injected transient failure (harness chaos "
                        "site transient-once)";
        } else if (isolate_) {
            const bool kill_child =
                faults != nullptr && faults->killChildNow();
            // Parent-side backstop well past the cooperative watchdog,
            // for children too wedged to poll it.
            const double hard =
                jobTimeoutS_ > 0.0 ? jobTimeoutS_ * 4.0 : 0.0;
            out = runJobIsolated(job, dcfg, hard, kill_child, gate);
        } else {
            out = runJob(job, dcfg);
        }
        out.attempts = attempt + 1;
        if (out.ok || attempt >= retries_)
            break;
        // Bounded deterministic backoff: a pure function of the attempt
        // number (50, 100, 200, ... capped at 1 s), so retried sweeps
        // stay reproducible.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(50u << std::min(attempt, 15u), 1000u)));
    }
    out.wallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    // Satellite of the crash-safe layer: every failed row names its
    // cell, so a timeout in a 500-cell grid is attributable from the
    // artifact alone (the watchdog already embeds the label; don't
    // double it).
    if (!out.ok && out.error.find(job.key) == std::string::npos)
        out.error = "job '" + job.key + "': " + out.error;
    return out;
}

void
SweepRunner::reclassifyForBudget(std::vector<JobOutcome>& outcomes) const
{
    if (maxFailures_ == 0)
        return;
    // The deterministic definition of an aborted sweep: walk the
    // submission order counting final failures; once the count reaches
    // the budget, every later cell is Skipped — regardless of which
    // cells some worker happened to run before the budget tripped.
    unsigned fail_count = 0;
    for (JobOutcome& out : outcomes) {
        if (fail_count >= maxFailures_) {
            out = JobOutcome();
            out.ok = false;
            out.status = JobStatus::Skipped;
            out.error = "sweep stopped: failure budget (" +
                        std::to_string(maxFailures_) + ") exhausted";
        } else if (!out.ok) {
            ++fail_count;
        }
    }
}

void
SweepRunner::quarantine(const SweepJob& job, JobOutcome& out) const
{
    namespace fs = std::filesystem;
    const std::string safe = forensics::sanitizeLabel(job.key);
    const fs::path dir = fs::path(quarantineDir_) / safe;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return; // quarantine is best-effort; the row still says failed

    // job.json is the cell's artifact row, quarantine flag included.
    out.quarantined = true;
    std::ofstream(dir / "job.json") << serializeRunRow(job, out) << '\n';

    // The forensic dump the failing chip wrote (if forensics were on):
    // same label-derived name the debug layer uses.
    const std::string forensic_dir = DebugConfig::current().forensicDir;
    if (!forensic_dir.empty()) {
        const fs::path src =
            fs::path(forensic_dir) / (safe + ".forensic.json");
        if (fs::exists(src, ec))
            fs::copy_file(src, dir / "forensic.json",
                          fs::copy_options::overwrite_existing, ec);
    }

    {
        std::ofstream os(dir / "rerun.txt");
        os << (rerunPrefix_.empty() ? "bench_all" : rerunPrefix_.c_str())
           << " --only-key '" << job.key << "'\n";
    }
}

std::vector<JobOutcome>
SweepRunner::run(
    const std::function<void(std::size_t, const JobOutcome&)>& on_done)
{
    std::vector<JobOutcome> outcomes(jobs_.size());

    std::atomic<std::size_t> next{0};
    std::mutex done_mutex;

    // Per-index completion state feeding the claim-time --max-failures
    // check (see setMaxFailures).
    enum : std::uint8_t { kPending = 0, kDone = 1, kDoneFailed = 2 };
    std::vector<std::atomic<std::uint8_t>> state(jobs_.size());

    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(workers_,
                                                    jobs_.size()));
    // A pool forks (--isolate) from one thread while the others run,
    // so it needs the fork gate (see ForkGate); one thread forks safely.
    ForkGate fork_gate;
    ForkGate* const gate = n > 1 ? &fork_gate : nullptr;

    // Workers claim jobs by submission index and write to disjoint
    // slots, so the only shared mutable state is the claim counter,
    // the completion states, and the progress callback.
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs_.size())
                return;
            JobOutcome& out = outcomes[i];
            if (maxFailures_ != 0) {
                // Conservative claim check: skip only when jobs
                // *earlier in submission order* have already provided
                // enough failures — then the sequential walk in
                // reclassifyForBudget() provably skips this cell too,
                // whatever the remaining jobs do.
                unsigned failed_below = 0;
                for (std::size_t j = 0; j < i; ++j)
                    failed_below += state[j].load() == kDoneFailed;
                if (failed_below >= maxFailures_) {
                    out.ok = false;
                    out.status = JobStatus::Skipped;
                    out.error = "sweep stopped: failure budget (" +
                                std::to_string(maxFailures_) +
                                ") exhausted";
                    state[i].store(kDone);
                    if (on_done) {
                        std::lock_guard<std::mutex> lock(done_mutex);
                        on_done(i, out);
                    }
                    continue;
                }
            }
            out = runAttempts(i, gate);
            state[i].store(out.ok ? kDone : kDoneFailed);
            if (on_done) {
                std::lock_guard<std::mutex> lock(done_mutex);
                on_done(i, out);
            }
        }
    };

    if (n <= 1) {
        worker();
    } else {
        // Thread start-up and tear-down touch the heap outside the
        // worker body, so no fork may overlap them: this thread holds
        // a share until every worker holds its own, and a worker's
        // thread ends only after every worker has left the job loop,
        // when nothing forks any more.
        std::latch started(n);
        std::latch finished(n);
        std::vector<std::thread> pool;
        pool.reserve(n);
        gate->enter();
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back([&] {
                gate->enter();
                started.count_down();
                worker();
                gate->leave();
                finished.arrive_and_wait();
            });
        started.wait();
        gate->leave();
        for (auto& t : pool)
            t.join();
    }

    reclassifyForBudget(outcomes);

    // Quarantine after reclassification so cells the deterministic
    // budget walk skipped never leave bundles behind, then mark the
    // surviving finally-failed rows.
    if (!quarantineDir_.empty()) {
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            JobOutcome& out = outcomes[i];
            if (!out.ok && out.status != JobStatus::Skipped)
                quarantine(jobs_[i], out);
        }
    }
    return outcomes;
}

} // namespace cbsim
