/**
 * @file
 * Tests for the crash-safe sweep layer (docs/ROBUSTNESS.md §Crash-safe
 * sweeps): process isolation, the result codec's byte-exact round
 * trip, the append-only journal, retry with quarantine, and the
 * harness chaos faults that provoke each recovery path on purpose.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "harness/harness_faults.hh"
#include "harness/journal.hh"
#include "harness/result_codec.hh"
#include "harness/result_sink.hh"
#include "harness/subprocess.hh"
#include "harness/sweep.hh"
#include "report/json_value.hh"
#include "system/chip_config.hh"
#include "workload/suite.hh"
#include "sim/log.hh"

namespace cbsim {
namespace {

namespace fs = std::filesystem;

SweepJob
tinyMicro(const std::string& key, SyncMicro m, Technique t)
{
    return SweepJob::forMicro(key, m, t, 4, 2, 500);
}

/** RAII: harness faults installed for one test, cleared after. */
struct ScopedHarnessFaults
{
    explicit ScopedHarnessFaults(const HarnessFaultPlan& plan)
    {
        setHarnessFaultsForTest(
            std::make_unique<HarnessFaultInjector>(plan));
    }
    ~ScopedHarnessFaults() { setHarnessFaultsForTest(nullptr); }
};

/** Fresh scratch directory under the test's working dir. */
fs::path
scratchDir(const std::string& name)
{
    const fs::path dir = fs::path("crash_safety_scratch") / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TEST(ResultCodec, RunRowIsAFixedPointOfParseRunRow)
{
    // The byte-identity hinge of journal replay and of the --isolate
    // pipe: a row decoded by parseRunRow() serializes back to the
    // exact same bytes, for every shape a row can take.
    DebugConfig observed = DebugConfig::current();
    observed.obs.epochTicks = 2000;
    observed.obs.attribution = true;
    observed.obs.causal = true;
    DebugConfig plain = DebugConfig::current();
    DebugConfig tight = plain;
    tight.checkIntervalEvents = 20; // so a tiny job polls the watchdog
    tight.wallTimeoutS = 1e-9;      // and any elapsed wall time trips

    Profile fft = scaled(benchmark("fft"), 0.1);
    fft.phases = 1;
    struct Cell
    {
        SweepJob job;
        const DebugConfig* dcfg;
        JobStatus want;
        const char* mustContain;
    };
    const Cell cells[] = {
        {SweepJob::forProfile("codec/profile", fft, Technique::CbOne, 4),
         &observed, JobStatus::Ok, "\"causal\""},
        {tinyMicro("codec/micro", SyncMicro::ClhLock, Technique::CbAll),
         &plain, JobStatus::Ok, "\"sync\""},
        {SweepJob::custom("codec/failed",
                          []() -> ExperimentResult {
                              fatal("bad \"cell\"\n");
                          }),
         &plain, JobStatus::Failed, "\"error\""},
        {tinyMicro("codec/timeout", SyncMicro::TtasLock,
                   Technique::Invalidation),
         &tight, JobStatus::TimedOut, "\"timeout\""},
    };
    for (const Cell& c : cells) {
        SCOPED_TRACE(c.job.key);
        JobOutcome out = runJob(c.job, *c.dcfg);
        ASSERT_EQ(out.status, c.want) << out.error;
        out.attempts = 2;
        out.quarantined = !out.ok;
        const std::string row = serializeRunRow(c.job, out);
        EXPECT_NE(row.find(c.mustContain), std::string::npos) << row;

        std::string err;
        const JsonValue doc = JsonValue::parse(row, err);
        ASSERT_TRUE(err.empty()) << err;
        const JobOutcome back = parseRunRow(doc);
        EXPECT_EQ(serializeRunRow(c.job, back), row);
        EXPECT_EQ(back.ok, out.ok);
        EXPECT_EQ(back.status, out.status);
        EXPECT_EQ(back.error, out.error);
        EXPECT_EQ(back.attempts, 2u);
        EXPECT_EQ(back.quarantined, out.quarantined);
        if (c.dcfg == &observed) {
            // Every optional array is present and round-trips.
            EXPECT_FALSE(back.result.run.epochs.empty());
            EXPECT_FALSE(back.result.run.contention.empty());
            EXPECT_FALSE(back.result.run.causal.empty());
        }
    }
}

TEST(ResultCodec, ChildPayloadRoundTripsToIdenticalRow)
{
    // The byte-identity hinge of --isolate: a result that crossed the
    // pipe must serialize to the exact same artifact row as the
    // in-process original, and the host-only counters must cross too.
    const SweepJob job =
        tinyMicro("codec/cell", SyncMicro::ClhLock, Technique::CbOne);
    const DebugConfig dcfg = DebugConfig::current();
    const JobOutcome inline_out = runJob(job, dcfg);
    ASSERT_TRUE(inline_out.ok) << inline_out.error;

    JobOutcome isolated = runJobIsolated(job, dcfg, 0.0, false);
    ASSERT_TRUE(isolated.ok) << isolated.error;
    EXPECT_EQ(isolated.status, JobStatus::Ok);
    isolated.attempts = inline_out.attempts;

    EXPECT_EQ(serializeRunRow(job, isolated),
              serializeRunRow(job, inline_out));
    EXPECT_EQ(isolated.result.run.events, inline_out.result.run.events);
    EXPECT_GT(isolated.result.run.events, 0u);
    EXPECT_GE(isolated.result.run.simWallMs, 0.0);
}

TEST(Isolation, BackstopPollTimeoutRoundsUpAndSaturates)
{
    EXPECT_EQ(backstopPollMs(0.0), -1);
    EXPECT_EQ(backstopPollMs(-1.0), -1);
    EXPECT_EQ(backstopPollMs(std::nan("")), -1);
    EXPECT_EQ(backstopPollMs(0.0001), 1); // never rounds down to 0
    EXPECT_EQ(backstopPollMs(2.5), 2500);
    // The backstop for a 536871 s --job-timeout-s is 4x that: past
    // INT_MAX ms.
    EXPECT_EQ(backstopPollMs(4 * 536871.0), INT_MAX);
    EXPECT_EQ(backstopPollMs(1e308 * 4.0), INT_MAX); // +inf
}

TEST(ResultCodec, JobConfigHashSeparatesConfigsAndSweeps)
{
    const SweepJob a = tinyMicro("cell", SyncMicro::ClhLock,
                                 Technique::CbOne);
    const SweepJob b = tinyMicro("cell", SyncMicro::ClhLock,
                                 Technique::CbAll);
    EXPECT_NE(jobConfigHash(a, 5, "cores=4"), jobConfigHash(b, 5, "cores=4"));
    // Same cell, different schema or sweep sizing: a journal from one
    // must never satisfy the other.
    EXPECT_NE(jobConfigHash(a, 5, "cores=4"), jobConfigHash(a, 4, "cores=4"));
    EXPECT_NE(jobConfigHash(a, 5, "cores=4"),
              jobConfigHash(a, 5, "cores=64"));
    EXPECT_EQ(jobConfigHash(a, 5, "cores=4"), jobConfigHash(a, 5, "cores=4"));
}

TEST(Isolation, IsolatedSweepMatchesInlineByteForByte)
{
    const auto sweep = [](bool isolate) {
        SweepRunner runner(2);
        runner.setIsolate(isolate);
        runner.add(tinyMicro("iso/a", SyncMicro::TtasLock,
                             Technique::Invalidation));
        runner.add(tinyMicro("iso/b", SyncMicro::ClhLock,
                             Technique::CbOne));
        runner.add(tinyMicro("iso/c", SyncMicro::TreeBarrier,
                             Technique::CbAll));
        const auto outcomes = runner.run();
        ResultSink sink("isolation_test");
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            sink.add(runner.job(i), outcomes[i]);
        return sink.toJson();
    };
    const std::string inline_json = sweep(false);
    const std::string isolated_json = sweep(true);
    EXPECT_GT(inline_json.size(), 0u);
    EXPECT_EQ(inline_json, isolated_json);
}

TEST(Isolation, CrashingCellBecomesACrashedRowWithoutKillingSiblings)
{
    SweepRunner runner(1);
    runner.setIsolate(true);
    runner.add(tinyMicro("ok-before", SyncMicro::ClhLock,
                         Technique::CbOne));
    runner.add(SweepJob::custom("hard-crash", [] {
        std::raise(SIGKILL); // stands in for a segfault / OOM kill
        return ExperimentResult();
    }));
    runner.add(tinyMicro("ok-after", SyncMicro::TreeBarrier,
                         Technique::Invalidation));

    const auto outcomes = runner.run();
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].status, JobStatus::Crashed);
    EXPECT_NE(outcomes[1].error.find("SIGKILL"), std::string::npos)
        << outcomes[1].error;
    EXPECT_NE(outcomes[1].error.find("hard-crash"), std::string::npos)
        << outcomes[1].error;
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;

    ResultSink sink("crash_test");
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        sink.add(runner.job(i), outcomes[i]);
    EXPECT_NE(sink.toJson().find("\"status\": \"crashed\""),
              std::string::npos);
}

TEST(Isolation, ChildFatalIsClassifiedInTheChild)
{
    // A failure the child can catch (fatal()) must come back as a
    // plain failed row — identical to what the inline path reports.
    SweepJob bad = SweepJob::custom("iso-fatal", []() -> ExperimentResult {
        fatal("deliberate failure inside the child");
    });
    SweepRunner runner(1);
    runner.setIsolate(true);
    runner.add(bad);
    const auto outcomes = runner.run();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_NE(outcomes[0].error.find("deliberate failure"),
              std::string::npos)
        << outcomes[0].error;
}

TEST(Isolation, WedgedChildTripsTheParentSideBackstop)
{
    // A child that stops polling its watchdog entirely: the parent's
    // hard backstop must SIGKILL it and report a timeout row.
    SweepJob wedged = SweepJob::custom("iso-wedged", [] {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return ExperimentResult();
    });
    const JobOutcome out =
        runJobIsolated(wedged, DebugConfig::current(), 0.2, false);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.status, JobStatus::TimedOut);
    EXPECT_NE(out.error.find("hard timeout"), std::string::npos)
        << out.error;
    EXPECT_NE(out.error.find("iso-wedged"), std::string::npos);
}

TEST(ForkGate, ExclusiveWaitsForEveryOtherShareAndBlocksNewOnes)
{
    ForkGate gate;
    gate.enter(); // this thread is a worker holding its share

    std::atomic<bool> holding{false};
    std::atomic<bool> released{false};
    std::thread busy([&] {
        gate.enter();
        holding = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        released = true;
        gate.leave();
    });
    while (!holding)
        std::this_thread::yield();

    std::atomic<bool> entered{false};
    std::thread late;
    {
        ForkGate::Exclusive exclusive(&gate);
        EXPECT_TRUE(released) << "forked while another thread held a share";
        late = std::thread([&] {
            gate.enter();
            entered = true;
            gate.leave();
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_FALSE(entered) << "took a share during the fork";
    }
    late.join();
    busy.join();
    EXPECT_TRUE(entered);

    // A share given up around a blocking wait lets another thread fork.
    std::atomic<bool> forked{false};
    {
        ForkGate::Away away(&gate);
        std::thread forker([&] {
            gate.enter();
            {
                ForkGate::Exclusive exclusive(&gate);
                forked = true;
            }
            gate.leave();
        });
        forker.join();
    }
    EXPECT_TRUE(forked);
    gate.leave();
}

TEST(ResultSink, WriteFilePublishesAtomicallyAndLeavesNoTemp)
{
    const fs::path dir = scratchDir("sink");
    const std::string path = (dir / "nested" / "out.json").string();

    SweepRunner runner(1);
    runner.add(tinyMicro("sink/cell", SyncMicro::TtasLock,
                         Technique::CbOne));
    const auto outcomes = runner.run();
    ASSERT_TRUE(outcomes[0].ok);

    ResultSink sink("writefile_test");
    sink.add(runner.job(0), outcomes[0]);
    sink.writeFile(path);

    std::ifstream is(path);
    std::ostringstream buf;
    buf << is.rdbuf();
    EXPECT_EQ(buf.str(), sink.toJson());
    EXPECT_FALSE(fs::exists(path + ".tmp")); // renamed, not copied

    // Re-publish over the existing artifact: still atomic, same bytes.
    sink.writeFile(path);
    std::ifstream is2(path);
    std::ostringstream buf2;
    buf2 << is2.rdbuf();
    EXPECT_EQ(buf2.str(), sink.toJson());
    fs::remove_all("crash_safety_scratch");
}

TEST(Chaos, KillChildFaultCrashesExactlyTheNthCell)
{
    HarnessFaultPlan plan;
    plan.killChildAt = 2;
    ScopedHarnessFaults faults(plan);

    SweepRunner runner(1);
    runner.setIsolate(true);
    runner.add(tinyMicro("chaos/a", SyncMicro::TtasLock,
                         Technique::CbOne));
    runner.add(tinyMicro("chaos/b", SyncMicro::ClhLock,
                         Technique::CbAll));
    runner.add(tinyMicro("chaos/c", SyncMicro::SrBarrier,
                         Technique::Invalidation));
    const auto outcomes = runner.run();
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(outcomes[1].status, JobStatus::Crashed);
    EXPECT_TRUE(outcomes[2].ok);
}

TEST(Retry, TransientFailureIsHealedByOneRetry)
{
    HarnessFaultPlan plan;
    plan.transientOnce = true;
    ScopedHarnessFaults faults(plan);

    SweepRunner runner(1);
    runner.setRetries(1);
    runner.add(tinyMicro("retry/cell", SyncMicro::ClhLock,
                         Technique::CbOne));
    const auto outcomes = runner.run();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 2u);
}

TEST(Retry, WithoutRetriesTheTransientFailureSticks)
{
    HarnessFaultPlan plan;
    plan.transientOnce = true;
    ScopedHarnessFaults faults(plan);

    SweepRunner runner(1);
    runner.add(tinyMicro("retry/none", SyncMicro::ClhLock,
                         Technique::CbOne));
    const auto outcomes = runner.run();
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_NE(outcomes[0].error.find("transient"), std::string::npos);
}

TEST(Retry, ExhaustedRetriesQuarantineTheCell)
{
    const fs::path qdir = scratchDir("quarantine");
    SweepJob bad = SweepJob::custom("quar/always-fails",
                                    []() -> ExperimentResult {
                                        fatal("fails every attempt");
                                    });
    SweepRunner runner(1);
    runner.setRetries(1);
    runner.setQuarantineDir(qdir.string());
    runner.setRerunPrefix("./build/bench/bench_all --smoke");
    runner.add(bad);
    runner.add(tinyMicro("quar/fine", SyncMicro::TtasLock,
                         Technique::CbOne));
    const auto outcomes = runner.run();

    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_TRUE(outcomes[0].quarantined);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_FALSE(outcomes[1].quarantined);

    // The bundle is self-contained: config, and the exact re-run line.
    // (The directory name is the sanitized key plus a hash suffix —
    // forensics::sanitizeLabel — so locate it by scanning.)
    fs::path bundle;
    for (const auto& entry : fs::directory_iterator(qdir))
        if (entry.is_directory())
            bundle = entry.path();
    ASSERT_FALSE(bundle.empty());
    EXPECT_NE(bundle.filename().string().find("quar_always-fails"),
              std::string::npos);
    EXPECT_TRUE(fs::exists(bundle / "job.json"));
    EXPECT_TRUE(fs::exists(bundle / "rerun.txt"));
    std::ifstream rerun(bundle / "rerun.txt");
    std::string line;
    std::getline(rerun, line);
    EXPECT_EQ(line, "./build/bench/bench_all --smoke "
                    "--only-key 'quar/always-fails'");
    std::string jerr;
    const JsonValue job_doc =
        JsonValue::parseFile((bundle / "job.json").string(), jerr);
    EXPECT_TRUE(jerr.empty()) << jerr;
    EXPECT_EQ(job_doc.getString("key"), "quar/always-fails");
    EXPECT_EQ(job_doc.getString("status"), "failed");
    // job.json is exactly the cell's failed artifact row.
    std::ifstream job_json(bundle / "job.json");
    const std::string job_text((std::istreambuf_iterator<char>(job_json)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(job_text, serializeRunRow(runner.job(0), outcomes[0]) + "\n");

    // The artifact row advertises the quarantine.
    ResultSink sink("quarantine_test");
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        sink.add(runner.job(i), outcomes[i]);
    EXPECT_NE(sink.toJson().find("\"quarantined\": true"),
              std::string::npos);
    fs::remove_all("crash_safety_scratch");
}

TEST(Journal, AppendLoadRoundTripAndTornTailTolerance)
{
    const fs::path dir = scratchDir("journal");
    const std::string path = (dir / "mod.json.journal").string();
    {
        ResultJournal journal(path);
        EXPECT_TRUE(journal.append("00aa", "{\n  \"key\": \"a\"\n}"));
        EXPECT_TRUE(journal.append("00bb", "{\n  \"key\": \"b\"\n}"));
        EXPECT_FALSE(journal.degraded());
    }
    // Simulate the line being written at SIGKILL time: a torn tail.
    {
        std::ofstream os(path, std::ios::app);
        os << "{\"cell\": \"00cc\", \"row\": \"{\\n  \"tr";
    }
    const auto entries = ResultJournal::load(path);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].cell, "00aa");
    EXPECT_EQ(entries[0].row, "{\n  \"key\": \"a\"\n}");
    EXPECT_EQ(entries[1].cell, "00bb");

    ResultJournal::removeFile(path);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(ResultJournal::load(path).empty());
    fs::remove_all("crash_safety_scratch");
}

TEST(Chaos, JournalEioFaultDegradesTheJournalNotTheSweep)
{
    HarnessFaultPlan plan;
    plan.journalEioAt = 2;
    ScopedHarnessFaults faults(plan);

    const fs::path dir = scratchDir("journal_eio");
    ResultJournal journal((dir / "mod.json.journal").string());
    EXPECT_TRUE(journal.append("00aa", "{}"));
    EXPECT_FALSE(journal.append("00bb", "{}")); // injected EIO
    EXPECT_TRUE(journal.degraded());
    EXPECT_FALSE(journal.append("00cc", "{}")); // stays degraded

    // Only the first line survives — and load still reads it.
    const auto entries = ResultJournal::load(journal.path());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].cell, "00aa");
    fs::remove_all("crash_safety_scratch");
}

TEST(Chaos, FaultPlanParserAcceptsSitesAndRejectsGarbage)
{
    std::string error;
    HarnessFaultPlan plan = HarnessFaultPlan::parse(
        "kill-child@3,journal-eio@1,sweep-kill@7,transient-once", error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(plan.killChildAt, 3u);
    EXPECT_EQ(plan.journalEioAt, 1u);
    EXPECT_EQ(plan.sweepKillAt, 7u);
    EXPECT_TRUE(plan.transientOnce);

    HarnessFaultPlan::parse("kill-child", error); // needs @N
    EXPECT_FALSE(error.empty());
    HarnessFaultPlan::parse("transient-once@2", error); // takes no @N
    EXPECT_FALSE(error.empty());
    HarnessFaultPlan::parse("kill-child@0", error); // 1-based
    EXPECT_FALSE(error.empty());
    HarnessFaultPlan::parse("made-up-site@1", error);
    EXPECT_FALSE(error.empty());
}

TEST(ResultSink, ReplayedRowIsSplicedVerbatim)
{
    // Two sinks over the same cell: one fresh, one fed the outcome
    // that --resume decodes from the fresh sink's serialized row —
    // the artifacts must match exactly.
    SweepRunner runner(1);
    runner.add(tinyMicro("replay/cell", SyncMicro::TtasLock,
                         Technique::CbOne));
    const auto outcomes = runner.run();
    ASSERT_TRUE(outcomes[0].ok);
    const std::string row = serializeRunRow(runner.job(0), outcomes[0]);

    ResultSink fresh("replay_test");
    fresh.meta("cores", "4");
    fresh.add(runner.job(0), outcomes[0]);

    std::string parse_error;
    const JsonValue row_doc = JsonValue::parse(row, parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    const JobOutcome replayed = parseRunRow(row_doc);
    EXPECT_TRUE(replayed.ok);
    EXPECT_EQ(replayed.attempts, outcomes[0].attempts);

    ResultSink resumed("replay_test");
    resumed.meta("cores", "4");
    resumed.add(runner.job(0), replayed);

    EXPECT_EQ(fresh.toJson(), resumed.toJson());
    EXPECT_TRUE(resumed.allOk());
}

} // namespace
} // namespace cbsim
