/**
 * @file
 * Full-scale (64-core, Table 2) integration checks and scaling
 * properties of the extension locks (Ticket, MCS) — the configurations
 * the bench binaries run, exercised with invariants in CI.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace cbsim {
namespace {

TEST(FullScale, SixtyFourCoreWorkloadRunsAllKeyTechniques)
{
    Profile p = scaled(benchmark("water-sp"), 0.2);
    p.phases = 2;
    for (Technique t : {Technique::Invalidation, Technique::BackOff10,
                        Technique::CbOne}) {
        auto r = runExperiment(p, t, 64); // guard counters checked inside
        EXPECT_GT(r.run.cycles, 0u) << techniqueName(t);
        const auto bar = static_cast<std::size_t>(SyncKind::Barrier);
        EXPECT_EQ(r.run.sync[bar].completions, 64u * p.phases);
    }
}

TEST(FullScale, CallbackLatencyStaysFlatAcrossCoreCounts)
{
    // CLH acquire latency under CB-One is a queue hand-off: the mean
    // grows with queue depth but the per-hand-off cost must not blow up
    // with core count (no broadcast anywhere in the protocol).
    double per_core[2];
    int i = 0;
    for (unsigned cores : {16u, 64u}) {
        // Saturating contention (tiny inter-acquire work) so the queue
        // depth tracks the core count at both scales.
        auto r = runSyncMicro(SyncMicro::ClhLock, Technique::CbOne,
                              cores, 4, /*work_between=*/100);
        const auto acq = static_cast<std::size_t>(SyncKind::Acquire);
        per_core[i++] =
            r.run.sync[acq].meanLatency / static_cast<double>(cores);
    }
    EXPECT_LT(per_core[1], 2.0 * per_core[0]);
}

TEST(ExtensionLocks, TicketAndMcsAvoidLlcSpinningWithCallbacks)
{
    // The extension locks inherit the paper's property: their callback
    // encodings block in the directory instead of spinning on the LLC.
    for (LockAlgo algo : {LockAlgo::Ticket, LockAlgo::Mcs}) {
        auto spin = [&](Technique tech, SyncFlavor flavor) {
            Chip chip(ChipConfig::forTechnique(tech, 16));
            SyncLayout layout;
            LockHandle lock = makeLock(layout, algo, 16);
            for (CoreId t = 0; t < 16; ++t) {
                Assembler a;
                a.workImm(13 * t);
                for (int i = 0; i < 4; ++i) {
                    emitAcquire(a, lock, flavor, t);
                    a.workImm(400); // long critical section: queueing
                    emitRelease(a, lock, flavor, t);
                    a.workImm(50);
                }
                chip.setProgram(t, a.assemble());
            }
            layout.apply(chip.dataStore());
            return chip.run().llcSyncAccesses;
        };
        const auto backoff0 =
            spin(Technique::BackOff0, SyncFlavor::VipsBackoff);
        const auto cb = spin(Technique::CbOne, SyncFlavor::CbOne);
        EXPECT_GT(backoff0, 3 * cb) << lockAlgoName(algo);
    }
}

TEST(ExtensionLocks, TicketReleaseBroadcastsEvenUnderCbOne)
{
    // Regression for the ticket/st_cb1 deadlock hazard: waiters await
    // different ticket values, so waking one (possibly wrong) waiter
    // would strand the rightful owner. The encoding must broadcast.
    Chip chip(ChipConfig::forTechnique(Technique::CbOne, 16));
    SyncLayout layout;
    LockHandle lock = makeLock(layout, LockAlgo::Ticket, 16);
    const Addr guard = layout.allocLine();
    layout.init(guard, 0);
    for (CoreId t = 0; t < 16; ++t) {
        Assembler a;
        a.workImm(t); // near-simultaneous arrival: deep ticket queue
        emitAcquire(a, lock, SyncFlavor::CbOne, t);
        a.movImm(2, guard);
        a.ld(4, 2);
        a.addImm(4, 4, 1);
        a.st(4, 2);
        emitRelease(a, lock, SyncFlavor::CbOne, t);
        chip.setProgram(t, a.assemble());
    }
    layout.apply(chip.dataStore());
    chip.run(); // a stranded waiter would trip the tick guard
    EXPECT_EQ(chip.dataStore().read(guard), 16u);
    // The broadcast shows up as st_through packets, not st_cb1.
    EXPECT_EQ(chip.mesh().packets(MsgType::StCb1), 0u);
    EXPECT_GT(chip.mesh().packets(MsgType::StThrough), 0u);
}

} // namespace
} // namespace cbsim
