/**
 * @file
 * Epoch time-series tests: the event-queue boundary hook, delta
 * accounting in the EpochSampler, and the schema-v3 "epochs" array of a
 * real micro run (docs/OBSERVABILITY.md).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "debug/debug_config.hh"
#include "harness/experiment.hh"
#include "harness/result_sink.hh"
#include "harness/sweep.hh"
#include "obs/epoch.hh"
#include "sim/event_queue.hh"

namespace cbsim {
namespace {

TEST(EventQueueEpochHook, CutsUniformBoundaries)
{
    EventQueue eq;
    std::vector<Tick> boundaries;
    eq.setEpochHook(100, [&](Tick t) { boundaries.push_back(t); });

    // A sparse schedule: the queue jumps tick 50 -> 150 -> 1000. The
    // hook must still emit one boundary per window, in order, so the
    // series stays uniform regardless of event density.
    int fired = 0;
    for (Tick t : {Tick{50}, Tick{150}, Tick{1000}})
        eq.schedule(t, [&] { ++fired; });
    eq.run();

    EXPECT_EQ(fired, 3);
    ASSERT_EQ(boundaries.size(), 10u);
    for (std::size_t i = 0; i < boundaries.size(); ++i)
        EXPECT_EQ(boundaries[i], 100 * (i + 1));
}

TEST(EventQueueEpochHook, OffByDefaultAndNeverFires)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(1 << 20, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2); // and no hook to crash on
}

TEST(EpochSampler, RowsCarryWindowDeltas)
{
    EventQueue eq;
    std::uint64_t llc0 = 0, llc1 = 0, flits = 0, packets = 0;
    std::uint64_t blockedNow = 0;
    EpochSampler sampler([&] {
        EpochRow now;
        now.llcAccesses = llc0 + llc1;
        now.flitHops = flits;
        now.packets = packets;
        now.blockedCores = blockedNow;
        return now;
    });
    sampler.install(eq, 100);

    // Window 1: 3 LLC accesses (split across banks), 10 hops, 2 pkts.
    eq.schedule(10, [&] {
        llc0 += 2;
        llc1 += 1;
        flits += 10;
        packets += 2;
        blockedNow = 3;
    });
    // Window 2: 1 more access; blocked probe drops back to zero.
    eq.schedule(150, [&] {
        llc0 += 1;
        blockedNow = 0;
    });
    eq.schedule(250, [] {});
    eq.run();

    const auto& rows = sampler.rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].tick, 100u);
    EXPECT_EQ(rows[0].llcAccesses, 3u);
    EXPECT_EQ(rows[0].flitHops, 10u);
    EXPECT_EQ(rows[0].packets, 2u);
    EXPECT_EQ(rows[0].blockedCores, 3u);
    EXPECT_EQ(rows[1].tick, 200u);
    EXPECT_EQ(rows[1].llcAccesses, 1u); // delta, not running total
    EXPECT_EQ(rows[1].flitHops, 0u);
    EXPECT_EQ(rows[1].blockedCores, 0u);
}

TEST(EpochSampler, FieldNameTableMatchesTheRowShape)
{
    // kFieldNames is the serialization contract (ResultSink order and
    // the check_docs.sh lint both read it).
    ASSERT_EQ(EpochSampler::kFieldNames.size(), 5u);
    EXPECT_STREQ(EpochSampler::kFieldNames[0], "tick");
    EXPECT_STREQ(EpochSampler::kFieldNames[1], "llc_accesses");
    EXPECT_STREQ(EpochSampler::kFieldNames[2], "flit_hops");
    EXPECT_STREQ(EpochSampler::kFieldNames[3], "packets");
    EXPECT_STREQ(EpochSampler::kFieldNames[4], "blocked_cores");
}

/** Run a tiny lock micro with epoch sampling at @p epochTicks. */
ExperimentResult
microWithEpochs(Tick epochTicks)
{
    DebugConfig cfg = DebugConfig::current();
    cfg.obs.epochTicks = epochTicks;
    DebugScope scope(cfg);
    return runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 4, 2, 500);
}

TEST(EpochSampler, RealRunProducesAUniformSeries)
{
    const ExperimentResult res = microWithEpochs(1000);
    const auto& epochs = res.run.epochs;
    ASSERT_FALSE(epochs.empty());
    std::uint64_t llcFromEpochs = 0;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        EXPECT_EQ(epochs[i].tick, 1000 * (i + 1));
        llcFromEpochs += epochs[i].llcAccesses;
    }
    // The series under-counts only the tail after the last boundary.
    EXPECT_LE(llcFromEpochs, res.run.llcAccesses);
    EXPECT_GT(llcFromEpochs, 0u);
}

TEST(EpochSampler, SamplingDoesNotPerturbTheSimulation)
{
    const ExperimentResult off =
        runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 4, 2, 500);
    const ExperimentResult on = microWithEpochs(500);
    // Identical simulated execution: epoch sampling is observation only.
    EXPECT_EQ(on.run.cycles, off.run.cycles);
    EXPECT_EQ(on.run.llcAccesses, off.run.llcAccesses);
    EXPECT_EQ(on.run.packets, off.run.packets);
    EXPECT_TRUE(off.run.epochs.empty());
}

TEST(ResultSink, EpochsLandInTheSchemaV3Artifact)
{
    SweepJob job = SweepJob::forMicro("epoch-cell", SyncMicro::TtasLock,
                                      Technique::CbOne, 4, 2, 500);
    JobOutcome out;
    out.ok = true;
    out.status = JobStatus::Ok;
    out.result = microWithEpochs(1000);

    ResultSink sink("epoch_test");
    sink.add(job, out);
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"epochs\""), std::string::npos);
    EXPECT_NE(json.find("\"blocked_cores\""), std::string::npos);

    // And a run without sampling serializes with no epochs key at all.
    JobOutcome plain;
    plain.ok = true;
    plain.status = JobStatus::Ok;
    plain.result =
        runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 4, 2, 500);
    ResultSink sink2("epoch_test");
    sink2.add(job, plain);
    EXPECT_EQ(sink2.toJson().find("\"epochs\""), std::string::npos);
}

} // namespace
} // namespace cbsim
