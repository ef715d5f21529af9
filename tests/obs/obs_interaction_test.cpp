/**
 * @file
 * Observability/robustness interaction regression tests: epoch
 * sampling, trace export, contention attribution, the invariant
 * checker, and the watchdog all hook the same event loop (epoch hook
 * before each bucket, poll hook after it). Enabling everything at once
 * must not change what the simulation does — the event count and every
 * result metric must match an all-off run exactly.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "debug/debug_config.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "system/chip_config.hh"

namespace cbsim {
namespace {

/** One tiny callback-technique micro under the current debug config. */
ExperimentResult
tinyMicro()
{
    return runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 4, 2, 500);
}

TEST(ObsInteraction, EverythingOnMatchesAllOffExactly)
{
    const ExperimentResult off = tinyMicro();

    const std::string dir =
        ::testing::TempDir() + "cbsim_obs_interaction";
    std::filesystem::remove_all(dir);

    DebugConfig cfg = DebugConfig::current();
    cfg.obs.epochTicks = 500;     // CBSIM_OBS_EPOCH
    cfg.obs.traceDir = dir;       // CBSIM_TRACE_DIR
    cfg.obs.attribution = true;   // CBSIM_OBS_ATTR
    cfg.checkInvariants = true;   // CBSIM_CHECK_INVARIANTS
    cfg.noProgressWindow = 1'000'000; // watchdog armed (never trips)
    cfg.checkIntervalEvents = 64;     // poll often to stress ordering
    cfg.wallTimeoutS = 600.0;
    ExperimentResult on = [&] {
        DebugScope scope(cfg);
        return tinyMicro();
    }();

    // Identical simulated execution: the hooks observe, never perturb.
    // `events` counts every kernel event the queue dispatched, so a
    // hook that scheduled work (or a mis-ordered epoch/poll pair that
    // dropped or duplicated a bucket) would show up here.
    EXPECT_EQ(on.run.events, off.run.events);
    EXPECT_EQ(on.run.cycles, off.run.cycles);
    EXPECT_EQ(on.run.instructions, off.run.instructions);
    EXPECT_EQ(on.run.llcAccesses, off.run.llcAccesses);
    EXPECT_EQ(on.run.packets, off.run.packets);
    EXPECT_EQ(on.run.flitHops, off.run.flitHops);
    EXPECT_EQ(on.run.stallCycles, off.run.stallCycles);
    EXPECT_EQ(on.run.cbWakeups, off.run.cbWakeups);

    // And each observer actually ran: epochs sampled, attribution
    // attributed, the trace file landed on disk.
    EXPECT_FALSE(on.run.epochs.empty());
    EXPECT_FALSE(on.run.contention.empty());
    bool sawTrace = false;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().string().ends_with(".trace.json"))
            sawTrace = true;
    EXPECT_TRUE(sawTrace);
    std::filesystem::remove_all(dir);
}

TEST(ObsInteraction, EverythingOnIsWorkerCountInvariant)
{
    // The full observability stack on a sweep: every worker thread runs
    // its own chip with epoch cuts, trace export, attribution,
    // invariants and the watchdog, so a 4-worker sweep must match a
    // 1-worker sweep cell for cell — same kernel event count, same
    // metrics, same epoch series, row by row. Worker threads resolve
    // DebugConfig::current() from the process defaults.
    const std::string dir =
        ::testing::TempDir() + "cbsim_obs_workers";
    std::filesystem::remove_all(dir);
    DebugConfig& defaults = DebugConfig::processDefaults();
    const DebugConfig saved = defaults;
    defaults.obs.epochTicks = 500;
    defaults.obs.traceDir = dir;
    defaults.obs.attribution = true;
    defaults.checkInvariants = true;
    defaults.noProgressWindow = 1'000'000;
    defaults.checkIntervalEvents = 64;
    defaults.wallTimeoutS = 600.0;

    const auto at = [](unsigned workers) {
        SweepRunner runner(workers);
        for (const Technique t : {Technique::Invalidation,
                                  Technique::BackOff10, Technique::CbAll,
                                  Technique::CbOne})
            runner.add(SweepJob::forMicro(techniqueName(t),
                                          SyncMicro::TtasLock, t, 4, 2,
                                          500));
        return runner.run();
    };
    const std::vector<JobOutcome> w1 = at(1);
    const std::vector<JobOutcome> w4 = at(4);
    defaults = saved;

    ASSERT_EQ(w1.size(), w4.size());
    for (std::size_t j = 0; j < w1.size(); ++j) {
        ASSERT_TRUE(w1[j].ok) << w1[j].error;
        ASSERT_TRUE(w4[j].ok) << w4[j].error;
        const RunResult& r1 = w1[j].result.run;
        const RunResult& r4 = w4[j].result.run;
        EXPECT_EQ(r1.events, r4.events) << "job " << j;
        const auto f1 = r1.scalarFields();
        const auto f4 = r4.scalarFields();
        ASSERT_EQ(f1.size(), f4.size());
        for (std::size_t i = 0; i < f1.size(); ++i) {
            ASSERT_STREQ(f1[i].first, f4[i].first);
            EXPECT_EQ(f1[i].second, f4[i].second) << f1[i].first;
        }
        EXPECT_FALSE(r1.epochs.empty());
        ASSERT_EQ(r1.epochs.size(), r4.epochs.size());
        for (std::size_t i = 0; i < r1.epochs.size(); ++i)
            EXPECT_EQ(r1.epochs[i], r4.epochs[i]) << "epoch " << i;
        EXPECT_EQ(r1.contention, r4.contention);
    }

    // Every worker's trace exporter wrote its file.
    bool sawTrace = false;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().string().ends_with(".trace.json"))
            sawTrace = true;
    EXPECT_TRUE(sawTrace);
    std::filesystem::remove_all(dir);
}

TEST(ObsInteraction, EpochAndWatchdogHookOrderingIsStable)
{
    // The same run under three polling cadences: the poll hook fires
    // after bucket dispatch and the epoch hook before it, so cadence
    // changes must never leak into epoch rows or metrics.
    DebugConfig cfg = DebugConfig::current();
    cfg.obs.epochTicks = 250;
    cfg.checkInvariants = true;
    cfg.noProgressWindow = 1'000'000;

    cfg.checkIntervalEvents = 16;
    ExperimentResult fast = [&] {
        DebugScope scope(cfg);
        return tinyMicro();
    }();
    cfg.checkIntervalEvents = 200'000;
    ExperimentResult slow = [&] {
        DebugScope scope(cfg);
        return tinyMicro();
    }();

    EXPECT_EQ(fast.run.events, slow.run.events);
    EXPECT_EQ(fast.run.cycles, slow.run.cycles);
    ASSERT_EQ(fast.run.epochs.size(), slow.run.epochs.size());
    for (std::size_t i = 0; i < fast.run.epochs.size(); ++i) {
        EXPECT_EQ(fast.run.epochs[i].tick, slow.run.epochs[i].tick);
        EXPECT_EQ(fast.run.epochs[i].llcAccesses,
                  slow.run.epochs[i].llcAccesses);
        EXPECT_EQ(fast.run.epochs[i].blockedCores,
                  slow.run.epochs[i].blockedCores);
    }
}

} // namespace
} // namespace cbsim
