/**
 * @file
 * Line names of the sync handles: each make* builder names the lines it
 * allocates in the layout's one table, once, and emitting the handle
 * into any number of programs leaves that table as it was.
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
    const Addr guard = layout.allocLine();
    layout.init(guard, 0);
    const std::map<Addr, std::string> made = layout.lineNames();

    for (CoreId t = 0; t < kThreads; ++t) {
        Assembler a;
        emitEpisode(a, h, t);
        emitEpisode(a, h, t);
        a.assemble();
    }
    EXPECT_EQ(layout.lineNames(), made);

    // CLH: the tail word plus kThreads + 1 queue nodes; TreeSR: three
    // flags per thread; one signal counter. The guard word is unnamed.
    EXPECT_EQ(made.size(), 1 + (kThreads + 1) + 3 * kThreads + 1);
    EXPECT_EQ(made.count(guard), 0u);
    const auto named = [&](const std::string& name) {
        for (const auto& [addr, n] : made)
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
    Assembler twice;
    emitBarrier(twice, b, SyncFlavor::Mesi, 0);
    emitBarrier(twice, b, SyncFlavor::Mesi, 0);
    twice.assemble();
    // The atomic variant never takes its counter lock, so only the
    // counter and the sense word are named.
    const auto& names = layout.lineNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names.at(b.counter), "barrier0.counter");
    EXPECT_EQ(names.at(b.senseWord), "barrier0.sense");
}

} // namespace
} // namespace cbsim
