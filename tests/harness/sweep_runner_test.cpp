/**
 * @file
 * Tests for the parallel sweep runner and the structured results layer:
 * submission-order collection, scheduling-independent (byte-identical)
 * JSON, and failure isolation — a job that trips the mutual-exclusion
 * invariant must report a failed outcome without affecting siblings —
 * and the run identity that lets a sweep share one run among cells.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "debug/debug_config.hh"
#include "harness/result_codec.hh"
#include "harness/result_sink.hh"
#include "harness/sweep.hh"
#include "sync/locks.hh"

namespace cbsim {
namespace {

/** A tiny but real micro job (4 cores, 2 iterations). */
SweepJob
tinyMicro(const std::string& key, SyncMicro m, Technique t)
{
    return SweepJob::forMicro(key, m, t, 4, 2, 500);
}

std::vector<SweepJob>
mixedJobList()
{
    std::vector<SweepJob> jobs;
    jobs.push_back(tinyMicro("a", SyncMicro::TtasLock,
                             Technique::Invalidation));
    jobs.push_back(tinyMicro("b", SyncMicro::ClhLock, Technique::CbOne));
    jobs.push_back(tinyMicro("c", SyncMicro::TreeBarrier,
                             Technique::BackOff10));
    jobs.push_back(tinyMicro("d", SyncMicro::SignalWait,
                             Technique::CbAll));
    Profile p = scaled(benchmark("fft"), 0.1);
    p.phases = 1;
    jobs.push_back(SweepJob::forProfile("e", p, Technique::CbOne, 4));
    jobs.push_back(tinyMicro("f", SyncMicro::SrBarrier,
                             Technique::BackOff5));
    jobs.push_back(tinyMicro("g", SyncMicro::TtasLock, Technique::CbAll));
    jobs.push_back(tinyMicro("h", SyncMicro::ClhLock,
                             Technique::BackOff0));
    return jobs;
}

TEST(SweepRunner, ResultsArriveInSubmissionOrder)
{
    SweepRunner runner(4);
    const auto jobs = mixedJobList();
    for (const auto& j : jobs)
        runner.add(j);
    ASSERT_EQ(runner.jobCount(), jobs.size());

    std::atomic<unsigned> callbacks{0};
    auto outcomes = runner.run(
        [&](std::size_t, const JobOutcome&) { ++callbacks; });

    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_EQ(callbacks.load(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // Outcome i belongs to submitted job i regardless of which
        // worker finished it first.
        EXPECT_EQ(runner.job(i).key, jobs[i].key);
        EXPECT_TRUE(outcomes[i].ok) << jobs[i].key << ": "
                                    << outcomes[i].error;
        EXPECT_GT(outcomes[i].result.run.cycles, 0u) << jobs[i].key;
    }
}

/** Run the same job list with @p workers threads and serialize. */
std::string
sweepJson(unsigned workers)
{
    SweepRunner runner(workers);
    const auto jobs = mixedJobList();
    for (const auto& j : jobs)
        runner.add(j);
    const auto outcomes = runner.run();

    ResultSink sink("determinism_test");
    sink.meta("cores", "4");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        sink.add(runner.job(i), outcomes[i]);
    return sink.toJson();
}

TEST(SweepRunner, ParallelJsonIsByteIdenticalToSerial)
{
    const std::string serial = sweepJson(1);
    const std::string parallel = sweepJson(4);
    EXPECT_GT(serial.size(), 0u);
    EXPECT_EQ(serial, parallel);
}

/**
 * A job whose run genuinely trips the mutual-exclusion invariant check:
 * the guard word is never incremented, but the workload claims it must
 * end at cores * iterations, so finishExperiment() fatal()s.
 */
ExperimentResult
runGuardViolation()
{
    constexpr unsigned cores = 4;
    ChipConfig cfg = ChipConfig::forTechnique(Technique::CbOne, cores);

    WorkloadBuild w;
    w.locks.push_back(
        makeLock(w.layout, LockAlgo::TestAndTestAndSet, cores));
    const Addr guard = w.layout.allocLine();
    w.layout.init(guard, 0);
    w.guardWords.push_back(guard);
    w.expectedGuardCounts.push_back(cores); // never incremented: trips

    Chip chip(cfg);
    w.layout.apply(chip.dataStore());
    for (CoreId t = 0; t < cores; ++t) {
        Assembler a;
        a.workImm(20);
        a.done();
        chip.setProgram(t, a.assemble());
        w.programs.push_back(Program{});
    }
    return finishExperiment(chip, w, true);
}

TEST(SweepRunner, FailedJobIsIsolatedFromSiblings)
{
    SweepRunner runner(4);
    runner.add(tinyMicro("ok-before", SyncMicro::ClhLock,
                         Technique::CbOne));
    runner.add(SweepJob::custom("bad", runGuardViolation));
    runner.add(tinyMicro("ok-after", SyncMicro::TreeBarrier,
                         Technique::Invalidation));

    const auto outcomes = runner.run();
    ASSERT_EQ(outcomes.size(), 3u);

    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_GT(outcomes[0].result.run.cycles, 0u);

    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("mutual-exclusion"),
              std::string::npos)
        << outcomes[1].error;

    EXPECT_TRUE(outcomes[2].ok);
    EXPECT_GT(outcomes[2].result.run.cycles, 0u);

    // The sink records the failure without metrics and flags the sweep.
    ResultSink sink("failure_test");
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        sink.add(runner.job(i), outcomes[i]);
    EXPECT_FALSE(sink.allOk());
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(json.find("mutual-exclusion"), std::string::npos);
}

TEST(ResultSink, EscapesAndStructuresJson)
{
    SweepJob job = tinyMicro("quote\"and\\slash", SyncMicro::TtasLock,
                             Technique::CbOne);
    JobOutcome out;
    out.ok = false;
    out.error = "line1\nline2\ttab";

    ResultSink sink("escape_test");
    sink.meta("note", "a \"quoted\" value");
    sink.add(job, out);
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"quote\\\"and\\\\slash\""), std::string::npos);
    EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\": 8"), std::string::npos);
    EXPECT_NE(json.find("a \\\"quoted\\\" value"), std::string::npos);
}

TEST(ResultSink, EveryRowCarriesAStatusString)
{
    SweepRunner runner(2);
    runner.add(tinyMicro("fine", SyncMicro::ClhLock, Technique::CbOne));
    runner.add(SweepJob::custom("broken", runGuardViolation));
    const auto outcomes = runner.run();

    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[1].status, JobStatus::Failed);

    ResultSink sink("status_test");
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        sink.add(runner.job(i), outcomes[i]);
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    // Failed rows keep their error text in place of metrics.
    EXPECT_NE(json.find("\"error\""), std::string::npos);
}

TEST(SweepRunner, MaxFailuresStopsClaimingNewJobs)
{
    // One worker makes the claim order deterministic: the first job
    // burns the whole failure budget, so the rest must be skipped.
    SweepRunner runner(1);
    runner.setMaxFailures(1);
    runner.add(SweepJob::custom("bad", runGuardViolation));
    runner.add(tinyMicro("never-run-1", SyncMicro::TtasLock,
                         Technique::CbAll));
    runner.add(tinyMicro("never-run-2", SyncMicro::SrBarrier,
                         Technique::Invalidation));

    const auto outcomes = runner.run();
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[1].status, JobStatus::Skipped);
    EXPECT_EQ(outcomes[2].status, JobStatus::Skipped);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("failure budget"),
              std::string::npos)
        << outcomes[1].error;

    ResultSink sink("budget_test");
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        sink.add(runner.job(i), outcomes[i]);
    EXPECT_NE(sink.toJson().find("\"status\": \"skipped\""),
              std::string::npos);
}

/** Serialize a budget-tripped sweep executed on @p workers threads. */
std::string
abortedSweepJson(unsigned workers)
{
    SweepRunner runner(workers);
    runner.setMaxFailures(2);
    runner.add(SweepJob::custom("bad-1", runGuardViolation));
    runner.add(tinyMicro("ok-1", SyncMicro::TtasLock, Technique::CbOne));
    runner.add(SweepJob::custom("bad-2", runGuardViolation));
    runner.add(tinyMicro("ok-2", SyncMicro::ClhLock,
                         Technique::Invalidation));
    runner.add(tinyMicro("ok-3", SyncMicro::TreeBarrier,
                         Technique::CbAll));
    runner.add(tinyMicro("ok-4", SyncMicro::SignalWait,
                         Technique::BackOff10));
    const auto outcomes = runner.run();

    ResultSink sink("budget_determinism_test");
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        sink.add(runner.job(i), outcomes[i]);
    return sink.toJson();
}

TEST(SweepRunner, MaxFailuresSkipSetIsDeterministicAcrossWorkers)
{
    // The deterministic contract: which cells a budget-tripped sweep
    // skips depends only on submission order. With the budget at 2,
    // the walk reaches it at "bad-2" (index 2), so "ok-2".."ok-4" must
    // be skipped — even when 4 workers raced ahead and actually ran
    // them before the second failure completed.
    const std::string serial = abortedSweepJson(1);
    const std::string parallel = abortedSweepJson(4);
    EXPECT_GT(serial.size(), 0u);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"status\": \"skipped\""), std::string::npos);
}

TEST(SweepRunner, FailedRowErrorNamesItsCell)
{
    // In a grid of hundreds of cells, a failed row must be
    // attributable from the artifact alone: the error text carries the
    // sweep-job key (the watchdog label already embeds it for
    // timeouts; plain failures get it prefixed).
    SweepRunner runner(1);
    runner.add(SweepJob::custom("grid/cell-under-test",
                                runGuardViolation));
    const auto outcomes = runner.run();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_NE(outcomes[0].error.find("grid/cell-under-test"),
              std::string::npos)
        << outcomes[0].error;
}

TEST(SweepRunner, JobTimeoutBecomesATimedOutRow)
{
    // The watchdog polls the wall clock every checkIntervalEvents
    // events; tighten the process default so a tiny job still polls.
    DebugConfig& defaults = DebugConfig::processDefaults();
    const DebugConfig saved = defaults;
    defaults.checkIntervalEvents = 20;

    SweepRunner runner(1);
    runner.setJobTimeoutS(1e-9); // any elapsed wall time trips
    runner.add(tinyMicro("too-slow", SyncMicro::ClhLock,
                         Technique::CbOne));
    const auto outcomes = runner.run();
    defaults = saved;

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].status, JobStatus::TimedOut);
    EXPECT_NE(outcomes[0].error.find("wall-clock"), std::string::npos)
        << outcomes[0].error;

    ResultSink sink("timeout_test");
    sink.add(runner.job(0), outcomes[0]);
    EXPECT_NE(sink.toJson().find("\"status\": \"timeout\""),
              std::string::npos);
}

TEST(SameRun, JobsDifferingOnlyInKeyShareARun)
{
    EXPECT_TRUE(sameRun(tinyMicro("fig01/CLH", SyncMicro::ClhLock,
                                  Technique::CbOne),
                        tinyMicro("fig20/CLH", SyncMicro::ClhLock,
                                  Technique::CbOne)));
    const Profile p = scaled(benchmark("fft"), 0.1);
    const SweepJob a =
        SweepJob::forProfile("fig21/fft", p, Technique::CbOne, 4);
    const SweepJob b =
        SweepJob::forProfile("fig22/fft", p, Technique::CbOne, 4);
    EXPECT_TRUE(sameRun(a, b));

    // The shared outcome serializes under each cell's own key into rows
    // that differ in nothing else.
    JobOutcome out = runJob(a, DebugConfig::current());
    ASSERT_TRUE(out.ok) << out.error;
    out.attempts = 1;
    std::string row_b = serializeRunRow(b, out);
    const std::string key_b = "\"key\": \"fig22/fft\"";
    ASSERT_NE(row_b.find(key_b), std::string::npos);
    row_b.replace(row_b.find(key_b), key_b.size(),
                  "\"key\": \"fig21/fft\"");
    EXPECT_EQ(serializeRunRow(a, out), row_b);
}

TEST(SameRun, AnyProfileParameterOrDirectorySizeSeparatesRuns)
{
    const Profile p = scaled(benchmark("fft"), 0.1);
    const SweepJob base = SweepJob::forProfile("a", p, Technique::CbOne, 4);

    // Same profile name, different parameters: a config hash that
    // names only the workload would merge these.
    Profile seeded = p;
    seeded.seed ^= 1;
    EXPECT_FALSE(sameRun(
        base, SweepJob::forProfile("b", seeded, Technique::CbOne, 4)));
    Profile phased = p;
    phased.phases += 1;
    EXPECT_FALSE(sameRun(
        base, SweepJob::forProfile("c", phased, Technique::CbOne, 4)));

    EXPECT_FALSE(sameRun(
        base, SweepJob::forProfile("d", p, Technique::CbOne, 4,
                                   SyncChoice::scalable(),
                                   /*cb_entries_per_bank=*/16)));
    EXPECT_FALSE(sameRun(
        base, SweepJob::forProfile("e", p, Technique::CbOne, 4,
                                   SyncChoice::naive())));
    EXPECT_FALSE(sameRun(
        base, SweepJob::forProfile("f", p, Technique::CbAll, 4)));
    EXPECT_FALSE(sameRun(SweepJob::forMicro("g", SyncMicro::ClhLock,
                                            Technique::CbOne, 4, 2, 500),
                         SweepJob::forMicro("h", SyncMicro::ClhLock,
                                            Technique::CbOne, 4, 2, 600)));
}

TEST(SameRun, CustomJobsNeverShare)
{
    const auto fn = [] { return ExperimentResult{}; };
    const SweepJob a = SweepJob::custom("messages/CB-One", fn);
    EXPECT_FALSE(sameRun(a, SweepJob::custom("messages/CB-All", fn)));
    EXPECT_FALSE(sameRun(a, a));
}

} // namespace
} // namespace cbsim
