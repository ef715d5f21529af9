#include "sync/barriers.hh"

#include <string>

#include "sim/log.hh"

namespace cbsim {

const char*
barrierAlgoName(BarrierAlgo a)
{
    return a == BarrierAlgo::SenseReversing ? "SR" : "TreeSR";
}

namespace {

bool
fenced(SyncFlavor f)
{
    return f != SyncFlavor::Mesi;
}

/** Racy store of an immediate, in the flavour's idiom (wake-all). */
void
emitRacyStoreImm(Assembler& a, SyncFlavor flavor, Word value, Reg base,
                 std::int64_t off = 0)
{
    if (fenced(flavor))
        a.stThroughImm(value, base, off);
    else
        a.stImm(value, base, off).sync = true;
}

void
emitRacyStoreReg(Assembler& a, SyncFlavor flavor, Reg src, Reg base,
                 std::int64_t off = 0)
{
    if (fenced(flavor))
        a.stThrough(src, base, off);
    else
        a.st(src, base, off).sync = true;
}

/** Spin until mem[base] == 0 (TreeSR arrival flags). */
void
emitSpinUntilZero(Assembler& a, SyncFlavor flavor, Reg base)
{
    const auto spn = a.uniqueLabel("spn");
    const auto out = a.uniqueLabel("out");
    switch (flavor) {
      case SyncFlavor::Mesi: {
        a.label(spn);
        auto& spin_ld = a.ld(sreg::val, base);
        spin_ld.sync = true;
        spin_ld.spin = true;
        a.bnez(sreg::val, spn);
        break;
      }
      case SyncFlavor::VipsBackoff:
        a.label(spn);
        a.ldThrough(sreg::val, base).spin = true;
        a.bnez(sreg::val, spn);
        break;
      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne:
        a.ldThrough(sreg::val, base);
        a.beqz(sreg::val, out);
        a.label(spn);
        a.ldCb(sreg::val, base);
        a.bnez(sreg::val, spn);
        a.label(out);
        break;
    }
}

/** Spin until mem[base] == regs[want] (sense waits). */
void
emitSpinUntilEqual(Assembler& a, SyncFlavor flavor, Reg base, Reg want)
{
    const auto spn = a.uniqueLabel("spn");
    const auto out = a.uniqueLabel("out");
    switch (flavor) {
      case SyncFlavor::Mesi: {
        a.label(spn);
        auto& spin_ld = a.ld(sreg::val, base);
        spin_ld.sync = true;
        spin_ld.spin = true;
        a.bne(sreg::val, want, spn);
        break;
      }
      case SyncFlavor::VipsBackoff:
        a.label(spn);
        a.ldThrough(sreg::val, base).spin = true;
        a.bne(sreg::val, want, spn);
        break;
      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne:
        // Fig. 15/17: guard ld_through, then the ld_cb spin loop.
        a.ldThrough(sreg::val, base);
        a.beq(sreg::val, want, out);
        a.label(spn);
        a.ldCb(sreg::val, base);
        a.bne(sreg::val, want, spn);
        a.label(out);
        break;
    }
}

void
emitSrBarrier(Assembler& a, const BarrierHandle& b, SyncFlavor flavor,
              CoreId tid, bool record)
{
    if (record)
        a.recordStart(SyncKind::Barrier);
    if (fenced(flavor))
        a.selfDown(); // Fig. 15: publish my writes before arriving

    // Flip the local sense (thread-private line; Fig. 14 "not $s, $s").
    a.movImm(sreg::tmp, b.localSense.at(tid));
    a.ld(sreg::sense, sreg::tmp, 0);
    a.notOp(sreg::sense, sreg::sense);
    a.st(sreg::sense, sreg::tmp, 0);

    const auto last = a.uniqueLabel("last");
    const auto bcast = a.uniqueLabel("bcast");
    const auto end = a.uniqueLabel("end");

    if (b.atomicCounter) {
        // Fig. 14: a single fetch&decrement on the counter.
        a.movImm(sreg::addr, b.counter);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::FetchAndAdd,
                 static_cast<Word>(-1), 0, false,
                 fenced(flavor) ? WakePolicy::All : WakePolicy::None);
        // Last arrival read 1.
        a.addImm(sreg::val, sreg::val, static_cast<Word>(-1));
        a.beqz(sreg::val, last);
    } else {
        // Splash-2 POSIX style (§5.2): counter under the companion lock.
        emitAcquire(a, b.counterLock, flavor, tid, /*record=*/false);
        a.movImm(sreg::addr, b.counter);
        a.ld(sreg::val, sreg::addr, 0);
        a.addImm(sreg::val, sreg::val, static_cast<Word>(-1));
        a.beqz(sreg::val, last);
        a.st(sreg::val, sreg::addr, 0);
        emitRelease(a, b.counterLock, flavor, tid, /*record=*/false);
    }

    // Non-last threads spin until the global sense flips.
    a.movImm(sreg::addr, b.senseWord);
    emitSpinUntilEqual(a, flavor, sreg::addr, sreg::sense);
    a.jump(end);

    a.label(last);
    // Reset the counter for the next episode, then flip the sense.
    a.movImm(sreg::addr, b.counter);
    if (b.atomicCounter) {
        emitRacyStoreImm(a, flavor, b.numThreads, sreg::addr);
    } else {
        a.movImm(sreg::val, b.numThreads);
        a.st(sreg::val, sreg::addr, 0);
        emitRelease(a, b.counterLock, flavor, tid, /*record=*/false);
    }
    a.label(bcast);
    a.movImm(sreg::addr, b.senseWord);
    // Barrier release is a broadcast: st_through/st_cbA in both callback
    // flavours (Fig. 15).
    emitRacyStoreReg(a, flavor, sreg::sense, sreg::addr);

    a.label(end);
    if (fenced(flavor))
        a.selfInvl();
    if (record)
        a.recordEnd(SyncKind::Barrier);
}

void
emitTreeBarrier(Assembler& a, const BarrierHandle& b, SyncFlavor flavor,
                CoreId tid, bool record)
{
    const unsigned n = b.numThreads;
    const unsigned c0 = 2 * tid + 1;
    const unsigned c1 = 2 * tid + 2;
    const bool has_c0 = c0 < n;
    const bool has_c1 = c1 < n;

    if (record)
        a.recordStart(SyncKind::Barrier);
    if (fenced(flavor))
        a.selfDown(); // Fig. 17: "bar: self-down"

    // Load the local sense (flipped at the end, as in Fig. 16).
    a.movImm(sreg::tmp, b.localSense.at(tid));
    a.ld(sreg::sense, sreg::tmp, 0);

    // Arrival: wait for both children, reset their flags.
    if (has_c0) {
        a.movImm(sreg::addr, b.childNotReady0.at(tid));
        emitSpinUntilZero(a, flavor, sreg::addr);
        emitRacyStoreImm(a, flavor, 1, sreg::addr); // "st R, $h"
    }
    if (has_c1) {
        a.movImm(sreg::addr, b.childNotReady1.at(tid));
        emitSpinUntilZero(a, flavor, sreg::addr);
        emitRacyStoreImm(a, flavor, 1, sreg::addr);
    }

    if (tid != 0) {
        // Tell the parent this subtree arrived ("st 0($p), 0").
        const unsigned parent = (tid - 1) / 2;
        const Addr slot = (tid % 2 == 1) ? b.childNotReady0.at(parent)
                                         : b.childNotReady1.at(parent);
        a.movImm(sreg::addr, slot);
        emitRacyStoreImm(a, flavor, 0, sreg::addr);

        // Wait for the wake-up wave from the parent.
        a.movImm(sreg::addr, b.wakeSense.at(tid));
        emitSpinUntilEqual(a, flavor, sreg::addr, sreg::sense);
    }

    if (fenced(flavor))
        a.selfInvl(); // Fig. 17: "sen: self-invl"

    // Wake the children ("st 0($c), $s; st 1($c), $s").
    if (has_c0) {
        a.movImm(sreg::addr, b.wakeSense.at(c0));
        emitRacyStoreReg(a, flavor, sreg::sense, sreg::addr);
    }
    if (has_c1) {
        a.movImm(sreg::addr, b.wakeSense.at(c1));
        emitRacyStoreReg(a, flavor, sreg::sense, sreg::addr);
    }

    // Flip and persist the local sense ("not $s, $s").
    a.notOp(sreg::sense, sreg::sense);
    a.movImm(sreg::tmp, b.localSense.at(tid));
    a.st(sreg::sense, sreg::tmp, 0);

    if (record)
        a.recordEnd(SyncKind::Barrier);
}

} // namespace

BarrierHandle
makeSrBarrier(SyncLayout& layout, unsigned num_threads,
              LockAlgo counter_lock_algo)
{
    BarrierHandle b;
    b.algo = BarrierAlgo::SenseReversing;
    b.numThreads = num_threads;
    b.name = layout.autoName("barrier");
    b.counter = layout.allocLine();
    b.senseWord = layout.allocLine();
    layout.init(b.counter, num_threads);
    layout.init(b.senseWord, 0);
    b.counterLock = makeLock(layout, counter_lock_algo, num_threads);
    b.counterLock.name = b.name + ".lock";
    b.localSense.reserve(num_threads);
    for (CoreId t = 0; t < num_threads; ++t) {
        const Addr ls = layout.allocPrivateLine(t);
        layout.init(ls, 0); // flipped to 1 on first arrival
        b.localSense.push_back(ls);
    }
    return b;
}

BarrierHandle
makeSrBarrierAtomic(SyncLayout& layout, unsigned num_threads)
{
    BarrierHandle b = makeSrBarrier(layout, num_threads,
                                    LockAlgo::TestAndTestAndSet);
    b.atomicCounter = true;
    return b;
}

BarrierHandle
makeTreeBarrier(SyncLayout& layout, unsigned num_threads)
{
    BarrierHandle b;
    b.algo = BarrierAlgo::TreeSenseReversing;
    b.numThreads = num_threads;
    b.name = layout.autoName("barrier");
    for (CoreId t = 0; t < num_threads; ++t) {
        const unsigned c0 = 2 * t + 1;
        const unsigned c1 = 2 * t + 2;
        b.childNotReady0.push_back(layout.allocLine());
        b.childNotReady1.push_back(layout.allocLine());
        b.wakeSense.push_back(layout.allocLine());
        layout.init(b.childNotReady0.back(), c0 < num_threads ? 1 : 0);
        layout.init(b.childNotReady1.back(), c1 < num_threads ? 1 : 0);
        layout.init(b.wakeSense.back(), 0);
        const Addr ls = layout.allocPrivateLine(t);
        layout.init(ls, 1); // first wake-up wave carries sense 1
        b.localSense.push_back(ls);
    }
    return b;
}

namespace {

/**
 * Name the barrier's shared lines in @p a on its first emission there.
 * Each address belongs to exactly one handle, so once the first line
 * is named every later name would lose to its first binding anyway.
 */
void
registerBarrierSymbols(Assembler& a, const BarrierHandle& barrier)
{
    if (barrier.name.empty())
        return;
    if (barrier.algo == BarrierAlgo::SenseReversing) {
        if (a.hasDataSymbol(barrier.counter))
            return;
        a.dataSymbol(barrier.name + ".counter", barrier.counter);
        a.dataSymbol(barrier.name + ".sense", barrier.senseWord);
        return;
    }
    if (barrier.wakeSense.empty() ||
        a.hasDataSymbol(barrier.childNotReady0.front()))
        return;
    for (std::size_t t = 0; t < barrier.wakeSense.size(); ++t) {
        const std::string n = std::to_string(t);
        a.dataSymbol(barrier.name + ".cnr0." + n, barrier.childNotReady0[t]);
        a.dataSymbol(barrier.name + ".cnr1." + n, barrier.childNotReady1[t]);
        a.dataSymbol(barrier.name + ".wake." + n, barrier.wakeSense[t]);
    }
}

} // namespace

void
emitBarrier(Assembler& a, const BarrierHandle& barrier, SyncFlavor flavor,
            CoreId tid, bool record)
{
    registerBarrierSymbols(a, barrier);
    if (barrier.algo == BarrierAlgo::SenseReversing)
        emitSrBarrier(a, barrier, flavor, tid, record);
    else
        emitTreeBarrier(a, barrier, flavor, tid, record);
}

} // namespace cbsim
