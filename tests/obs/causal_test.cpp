/**
 * @file
 * Causal sync-episode tracing tests (docs/OBSERVABILITY.md §Causal
 * tracing): the reconciliation contract (segment cycles are an exact
 * partition of stall_cycles), off-by-default no-op, per-technique
 * segment sanity, and the schema-v7 determinism contract — the
 * "causal" array must be byte-identical across sweep worker counts.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "debug/debug_config.hh"
#include "harness/experiment.hh"
#include "harness/result_sink.hh"
#include "harness/sweep.hh"
#include "obs/causal.hh"
#include "system/chip_config.hh"

namespace cbsim {
namespace {

/** Enable causal tracing for the enclosing scope. */
class CausalScope
{
  public:
    CausalScope() : cfg_(DebugConfig::current())
    {
        cfg_.obs.causal = true;
        scope_.emplace(cfg_);
    }

  private:
    DebugConfig cfg_;
    std::optional<DebugScope> scope_;
};

std::uint64_t
totalCycles(const std::vector<CausalRow>& rows)
{
    return std::accumulate(rows.begin(), rows.end(), std::uint64_t{0},
                           [](std::uint64_t a, const CausalRow& r) {
                               return a + r.cycles;
                           });
}

const CausalRow&
segment(const std::vector<CausalRow>& rows, CausalSegment seg)
{
    return rows.at(static_cast<std::size_t>(seg));
}

TEST(CausalRows, FieldTableMatchesTheRowShape)
{
    // kCausalFields is the serialization contract (result_codec order
    // and the check_docs.sh lint both read it).
    ASSERT_EQ(kCausalFields.size(), 7u);
    EXPECT_EQ(kCausalFields[0], "segment");
    EXPECT_EQ(kCausalFields[1], "cycles");
    EXPECT_EQ(kCausalFields[2], "count");
    EXPECT_EQ(kCausalFields[3], "flit_hops");
    EXPECT_EQ(kCausalFields[6], "p99");
}

TEST(CausalRows, OffByDefaultProducesNoRows)
{
    const ExperimentResult r =
        runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 4, 2, 500);
    EXPECT_TRUE(r.run.causal.empty());
}

TEST(CausalRows, ObservationOnlyAndAlwaysEightSegments)
{
    const ExperimentResult off =
        runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 4, 2, 500);

    CausalScope causal;
    const ExperimentResult on =
        runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 4, 2, 500);

    ASSERT_EQ(on.run.causal.size(), kNumCausalSegments);
    for (std::size_t i = 0; i < kNumCausalSegments; ++i)
        EXPECT_EQ(on.run.causal[i].segment,
                  causalSegmentName(static_cast<CausalSegment>(i)));

    // Tracing is observation only: identical simulated execution.
    EXPECT_EQ(on.run.cycles, off.run.cycles);
    EXPECT_EQ(on.run.flitHops, off.run.flitHops);
    EXPECT_EQ(on.run.stallCycles, off.run.stallCycles);
}

/** The acceptance contract: Σ causal[].cycles == stall_cycles. */
TEST(CausalReconciliation, SegmentsPartitionStallCyclesPerTechnique)
{
    CausalScope causal;
    for (const Technique t : {Technique::Invalidation,
                              Technique::BackOff10, Technique::CbOne}) {
        const ExperimentResult r =
            runSyncMicro(SyncMicro::TtasLock, t, 4, 3, 500);
        ASSERT_EQ(r.run.causal.size(), kNumCausalSegments)
            << techniqueName(t);
        EXPECT_EQ(totalCycles(r.run.causal), r.run.stallCycles)
            << techniqueName(t);
    }
}

TEST(CausalReconciliation, HoldsAcrossWorkloadsAndBarriers)
{
    CausalScope causal;
    for (const SyncMicro m : {SyncMicro::ClhLock, SyncMicro::SrBarrier,
                              SyncMicro::SignalWait}) {
        const ExperimentResult r =
            runSyncMicro(m, Technique::CbOne, 4, 2, 500);
        EXPECT_EQ(totalCycles(r.run.causal), r.run.stallCycles)
            << syncMicroName(m);
    }
}

TEST(CausalSegments, TechniquesLightUpTheirOwnSegments)
{
    CausalScope causal;

    // MESI invalidation: waiters spin locally under the L1 spin-watch,
    // so episodes park (dir_queue = watch residency) and sync stores
    // travel the NoC.
    const ExperimentResult inv = runSyncMicro(
        SyncMicro::TtasLock, Technique::Invalidation, 4, 3, 500);
    EXPECT_GT(segment(inv.run.causal, CausalSegment::DirQueue).cycles, 0u);

    // VIPS back-off: no callback directory — waiters re-read through
    // the LLC with capped back-off; nothing ever parks.
    const ExperimentResult bo = runSyncMicro(
        SyncMicro::TtasLock, Technique::BackOff10, 4, 3, 500);
    EXPECT_GT(segment(bo.run.causal, CausalSegment::SpinPoll).cycles, 0u);
    EXPECT_EQ(segment(bo.run.causal, CausalSegment::DirQueue).count, 0u);

    // Callback: waiters park in the directory and are woken over the
    // NoC; both the queue-residency and wake segments must appear, and
    // wake traffic is attributed to the wake segments.
    const ExperimentResult cb =
        runSyncMicro(SyncMicro::TtasLock, Technique::CbOne, 4, 3, 500);
    const auto& rows = cb.run.causal;
    EXPECT_GT(segment(rows, CausalSegment::DirQueue).cycles, 0u);
    EXPECT_GT(segment(rows, CausalSegment::DirQueue).count, 0u);
    EXPECT_GT(segment(rows, CausalSegment::NocWake).cycles +
                  segment(rows, CausalSegment::CoreWakeup).cycles,
              0u);
    EXPECT_GT(segment(rows, CausalSegment::NocRequest).flitHops, 0u);
    EXPECT_GT(segment(rows, CausalSegment::NocWake).flitHops, 0u);

    // Percentiles are per-sub-span durations: populated wherever the
    // segment has contributing spans.
    EXPECT_GT(segment(rows, CausalSegment::DirQueue).p95, 0.0);
}

/**
 * Run one micro per technique with causal tracing on and @p workers
 * sweep threads; serialize to the schema-v7 artifact. Worker threads
 * resolve DebugConfig::current() from the process defaults.
 */
std::string
causalSweepJson(unsigned workers)
{
    DebugConfig& defaults = DebugConfig::processDefaults();
    const DebugConfig saved = defaults;
    defaults.obs.causal = true;

    SweepRunner runner(workers);
    runner.add(SweepJob::forMicro("inv", SyncMicro::TtasLock,
                                  Technique::Invalidation, 4, 2, 500));
    runner.add(SweepJob::forMicro("bo10", SyncMicro::TtasLock,
                                  Technique::BackOff10, 4, 2, 500));
    runner.add(SweepJob::forMicro("cb1", SyncMicro::TtasLock,
                                  Technique::CbOne, 4, 2, 500));
    const auto outcomes = runner.run();
    defaults = saved;

    ResultSink sink("causal_test");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        sink.add(runner.job(i), outcomes[i]);
    }
    return sink.toJson();
}

TEST(CausalDeterminism, ByteIdenticalAcrossSweepWorkers)
{
    const std::string serial = causalSweepJson(1);
    const std::string parallel = causalSweepJson(4);
    EXPECT_NE(serial.find("\"causal\""), std::string::npos);
    EXPECT_NE(serial.find("\"segment\": \"dir_queue\""),
              std::string::npos);
    EXPECT_EQ(serial, parallel);
}

TEST(CausalReconciliation, HoldsOnSixteenCoreBarrier)
{
    // A 4x4 mesh: longer routes and more waiters per directory than the
    // 4-core cases above; the partition must still reconcile.
    CausalScope causal;
    const ExperimentResult r =
        runSyncMicro(SyncMicro::SrBarrier, Technique::CbAll, 16, 2, 500);
    EXPECT_GT(r.run.stallCycles, 0u);
    EXPECT_EQ(totalCycles(r.run.causal), r.run.stallCycles);
}

} // namespace
} // namespace cbsim
