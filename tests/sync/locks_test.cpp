/**
 * @file
 * Lock-algorithm tests, parameterized over (flavour x algorithm): mutual
 * exclusion under contention, sequential re-acquisition, single-thread
 * fast path, and flavour-specific traffic properties (local spinning for
 * MESI, LLC spinning for back-off, directory blocking for callbacks).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "../support/chip_helpers.hh"
#include "sync/locks.hh"

namespace cbsim {
namespace {

Technique
techniqueFor(SyncFlavor f)
{
    switch (f) {
      case SyncFlavor::Mesi: return Technique::Invalidation;
      case SyncFlavor::VipsBackoff: return Technique::BackOff5;
      case SyncFlavor::CbAll: return Technique::CbAll;
      case SyncFlavor::CbOne: return Technique::CbOne;
    }
    return Technique::Invalidation;
}

using Param = std::tuple<SyncFlavor, LockAlgo>;

struct LockTest : ::testing::TestWithParam<Param>
{
    SyncFlavor flavor = std::get<0>(GetParam());
    LockAlgo algo = std::get<1>(GetParam());

    /**
     * N threads x iters critical sections incrementing a guarded
     * counter; returns the final counter value.
     */
    Word
    contend(unsigned cores, unsigned iters, Chip** out_chip = nullptr)
    {
        static std::unique_ptr<Chip> chip; // keep alive for inspection
        chip = std::make_unique<Chip>(
            testConfig(techniqueFor(flavor), cores));
        SyncLayout layout;
        LockHandle lock = makeLock(layout, algo, cores);
        const Addr guard = layout.allocLine();
        layout.init(guard, 0);

        for (CoreId t = 0; t < cores; ++t) {
            Assembler a;
            a.workImm(17 * t % 64);
            a.movImm(2, guard);
            a.movImm(5, 0);
            a.movImm(6, iters);
            a.label("loop");
            emitAcquire(a, lock, flavor, t);
            a.ld(4, 2);
            a.addImm(4, 4, 1);
            a.st(4, 2);
            emitRelease(a, lock, flavor, t);
            a.workImm(40 + t);
            a.addImm(5, 5, 1);
            a.bne(5, 6, "loop");
            chip->setProgram(t, a.assemble());
        }
        layout.apply(chip->dataStore());
        chip->run();
        if (out_chip)
            *out_chip = chip.get();
        return chip->dataStore().read(guard);
    }
};

TEST_P(LockTest, MutualExclusionUnderContention)
{
    EXPECT_EQ(contend(4, 20), 80u);
}

TEST_P(LockTest, SixteenCoreContention)
{
    EXPECT_EQ(contend(16, 6), 96u);
}

TEST_P(LockTest, SingleThreadFastPath)
{
    EXPECT_EQ(contend(1, 10), 10u);
}

TEST_P(LockTest, SyncLatencyIsRecorded)
{
    Chip* chip = nullptr;
    contend(4, 5, &chip);
    const auto acq = static_cast<std::size_t>(SyncKind::Acquire);
    const auto rel = static_cast<std::size_t>(SyncKind::Release);
    EXPECT_EQ(chip->syncStats().latency[acq].count, 20u);
    EXPECT_EQ(chip->syncStats().latency[rel].count, 20u);
    EXPECT_GT(chip->syncStats().latency[acq].mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavorsAndAlgos, LockTest,
    ::testing::Combine(::testing::Values(SyncFlavor::Mesi,
                                         SyncFlavor::VipsBackoff,
                                         SyncFlavor::CbAll,
                                         SyncFlavor::CbOne),
                       ::testing::Values(LockAlgo::TestAndSet,
                                         LockAlgo::TestAndTestAndSet,
                                         LockAlgo::Clh, LockAlgo::Ticket,
                                         LockAlgo::Mcs)),
    [](const ::testing::TestParamInfo<Param>& info) {
        std::string name = syncFlavorName(std::get<0>(info.param));
        name += "_";
        name += lockAlgoName(std::get<1>(info.param));
        for (auto& ch : name) {
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

TEST(LockTraffic, CallbackLockAvoidsLlcSpinning)
{
    // Hold the lock for a long time with one waiter: BackOff-0 hammers
    // the LLC while CB-One blocks in the directory.
    auto run = [](Technique tech, SyncFlavor flavor) {
        Chip chip(testConfig(tech, 4));
        idleAll(chip);
        SyncLayout layout;
        LockHandle lock =
            makeLock(layout, LockAlgo::TestAndTestAndSet, 4);

        Assembler holder;
        emitAcquire(holder, lock, flavor, 0);
        holder.workImm(20000);
        emitRelease(holder, lock, flavor, 0);
        chip.setProgram(0, holder.assemble());

        Assembler waiter;
        waiter.workImm(500);
        emitAcquire(waiter, lock, flavor, 1);
        emitRelease(waiter, lock, flavor, 1);
        chip.setProgram(1, waiter.assemble());

        layout.apply(chip.dataStore());
        return chip.run().llcSyncAccesses;
    };
    const auto spinning = run(Technique::BackOff0,
                              SyncFlavor::VipsBackoff);
    const auto callback = run(Technique::CbOne, SyncFlavor::CbOne);
    EXPECT_GT(spinning, 10 * callback);
    EXPECT_LT(callback, 30u);
}

TEST(LockTraffic, MesiSpinsInL1NotLlc)
{
    Chip chip(testConfig(Technique::Invalidation, 4));
    idleAll(chip);
    SyncLayout layout;
    LockHandle lock = makeLock(layout, LockAlgo::TestAndTestAndSet, 4);

    Assembler holder;
    emitAcquire(holder, lock, SyncFlavor::Mesi, 0);
    holder.workImm(20000);
    emitRelease(holder, lock, SyncFlavor::Mesi, 0);
    chip.setProgram(0, holder.assemble());

    Assembler waiter;
    waiter.workImm(500);
    emitAcquire(waiter, lock, SyncFlavor::Mesi, 1);
    emitRelease(waiter, lock, SyncFlavor::Mesi, 1);
    chip.setProgram(1, waiter.assemble());

    layout.apply(chip.dataStore());
    auto result = chip.run();
    EXPECT_LT(result.llcSyncAccesses, 20u);
    // The spin-watch charges one L1 access per pause interval of local
    // spinning: ~20000/12 accesses, far above the non-spinning traffic.
    EXPECT_GT(result.l1Accesses, 1000u);
}

struct FifoLockTest : ::testing::TestWithParam<LockAlgo>
{
};

TEST_P(FifoLockTest, HandsOffInFifoOrderUnderStagger)
{
    // Threads enqueue in a known order (staggered far apart); the
    // queue/ticket lock must grant the lock in that same order.
    Chip chip(testConfig(Technique::CbOne, 4));
    SyncLayout layout;
    LockHandle lock = makeLock(layout, GetParam(), 4);
    const Addr order = layout.allocLine(); // order[] slots
    const Addr cursor = layout.allocLine();
    layout.init(cursor, 0);

    for (CoreId t = 0; t < 4; ++t) {
        Assembler a;
        a.workImm(1 + t * 2000); // enqueue order 0,1,2,3
        emitAcquire(a, lock, SyncFlavor::CbOne, t);
        // order[cursor++] = t
        a.movImm(1, cursor);
        a.ld(2, 1);
        a.movImm(3, order);
        a.add(3, 3, 2);
        a.add(3, 3, 2);
        a.add(3, 3, 2);
        a.add(3, 3, 2);
        a.add(3, 3, 2);
        a.add(3, 3, 2);
        a.add(3, 3, 2);
        a.add(3, 3, 2); // order + 8*cursor
        a.movImm(4, t);
        a.st(4, 3);
        a.addImm(2, 2, 1);
        a.st(2, 1);
        emitRelease(a, lock, SyncFlavor::CbOne, t);
        chip.setProgram(t, a.assemble());
    }
    layout.apply(chip.dataStore());
    chip.run();
    for (CoreId t = 0; t < 4; ++t)
        EXPECT_EQ(chip.dataStore().read(order + 8 * t), t);
}

INSTANTIATE_TEST_SUITE_P(
    QueueLocks, FifoLockTest,
    ::testing::Values(LockAlgo::Clh, LockAlgo::Ticket, LockAlgo::Mcs),
    [](const ::testing::TestParamInfo<LockAlgo>& info) {
        std::string name = lockAlgoName(info.param);
        for (auto& ch : name) {
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

} // namespace
} // namespace cbsim
