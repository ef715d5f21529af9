/**
 * @file
 * Attribution symbols of the sync emitters: a handle's names are bound
 * on its first emission into an assembler, and emitting it again leaves
 * the program's symbol map exactly as one emission did.
 */

#include <gtest/gtest.h>

#include "sync/barriers.hh"
#include "sync/locks.hh"
#include "sync/signal_wait.hh"

namespace cbsim {
namespace {

constexpr unsigned kThreads = 64;

struct Handles
{
    LockHandle lock;
    BarrierHandle barrier;
    SignalHandle signal;
};

/** Emit one episode of every handle into @p a, as thread @p tid. */
void
emitEpisode(Assembler& a, const Handles& h, CoreId tid)
{
    emitAcquire(a, h.lock, SyncFlavor::CbOne, tid);
    emitRelease(a, h.lock, SyncFlavor::CbOne, tid);
    emitBarrier(a, h.barrier, SyncFlavor::CbOne, tid);
    emitSignal(a, h.signal, SyncFlavor::CbOne);
    emitWait(a, h.signal, SyncFlavor::CbOne);
}

TEST(SyncSymbols, RepeatEmissionLeavesSymbolsUnchanged)
{
    SyncLayout layout;
    Handles h{makeLock(layout, LockAlgo::Clh, kThreads),
              makeTreeBarrier(layout, kThreads), makeSignal(layout)};

    Assembler once;
    emitEpisode(once, h, 5);
    Assembler twice;
    emitEpisode(twice, h, 5);
    emitEpisode(twice, h, 5);

    const Program p1 = once.assemble();
    const Program p2 = twice.assemble();
    EXPECT_EQ(p1.symbols(), p2.symbols());

    // CLH: the tail word plus kThreads + 1 queue nodes; TreeSR: three
    // flags per thread; one signal counter.
    EXPECT_EQ(p1.symbols().size(), 1 + (kThreads + 1) + 3 * kThreads + 1);
    const auto named = [&](const std::string& name) {
        for (const auto& [addr, n] : p1.symbols())
            if (n == name)
                return true;
        return false;
    };
    EXPECT_TRUE(named("lock0"));
    EXPECT_TRUE(named("lock0.node64"));
    EXPECT_TRUE(named("barrier0.cnr0.0"));
    EXPECT_TRUE(named("barrier0.wake.63"));
    EXPECT_TRUE(named("signal0"));
}

TEST(SyncSymbols, SenseReversingBarrierNamedOnce)
{
    SyncLayout layout;
    const BarrierHandle b = makeSrBarrierAtomic(layout, 4);
    Assembler once;
    emitBarrier(once, b, SyncFlavor::Mesi, 0);
    Assembler twice;
    emitBarrier(twice, b, SyncFlavor::Mesi, 0);
    emitBarrier(twice, b, SyncFlavor::Mesi, 0);
    const Program p1 = once.assemble();
    EXPECT_EQ(p1.symbols(), twice.assemble().symbols());
    ASSERT_EQ(p1.symbols().size(), 2u);
    EXPECT_EQ(p1.symbols().at(b.counter), "barrier0.counter");
    EXPECT_EQ(p1.symbols().at(b.senseWord), "barrier0.sense");
}

} // namespace
} // namespace cbsim
