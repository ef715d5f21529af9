#include "sync/locks.hh"

#include <string>

#include "sim/log.hh"

namespace cbsim {

SyncFlavor
syncFlavorFor(Technique t)
{
    switch (t) {
      case Technique::Invalidation:
        return SyncFlavor::Mesi;
      case Technique::BackOff0:
      case Technique::BackOff5:
      case Technique::BackOff10:
      case Technique::BackOff15:
        return SyncFlavor::VipsBackoff;
      case Technique::CbAll:
        return SyncFlavor::CbAll;
      case Technique::CbOne:
        return SyncFlavor::CbOne;
      default:
        fatal("bad technique");
    }
}

const char*
syncFlavorName(SyncFlavor f)
{
    switch (f) {
      case SyncFlavor::Mesi: return "mesi";
      case SyncFlavor::VipsBackoff: return "vips";
      case SyncFlavor::CbAll: return "cb-all";
      case SyncFlavor::CbOne: return "cb-one";
      default: return "?";
    }
}

const char*
lockAlgoName(LockAlgo a)
{
    switch (a) {
      case LockAlgo::TestAndSet: return "T&S";
      case LockAlgo::TestAndTestAndSet: return "T&T&S";
      case LockAlgo::Clh: return "CLH";
      case LockAlgo::Ticket: return "Ticket";
      case LockAlgo::Mcs: return "MCS";
      default: return "?";
    }
}

namespace {

bool
fenced(SyncFlavor f)
{
    return f != SyncFlavor::Mesi;
}

/** The write-half policy of a successful lock-taking RMW. */
WakePolicy
takePolicy(SyncFlavor f)
{
    switch (f) {
      case SyncFlavor::Mesi:
        return WakePolicy::None;
      case SyncFlavor::VipsBackoff:
      case SyncFlavor::CbAll:
        // Fig. 9/11 left: the T&S write is a plain store-through (cbA).
        return WakePolicy::All;
      case SyncFlavor::CbOne:
        // Fig. 9/11 right: st_cb0 — taking the lock wakes nobody (§2.5).
        return WakePolicy::Zero;
    }
    return WakePolicy::None;
}

void
emitTasAcquire(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
               bool record)
{
    if (record)
        a.recordStart(SyncKind::Acquire);
    a.movImm(sreg::addr, lock.lockWord);
    const Label acq = a.newLabel();
    const Label spn = a.newLabel();
    const Label cs = a.newLabel();

    switch (flavor) {
      case SyncFlavor::Mesi:
        // Fig. 8 left: spin directly on the atomic.
        a.bind(acq);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndSet, 1, 0,
                 false, WakePolicy::None)
            .spin = true;
        a.bnez(sreg::val, acq);
        break;

      case SyncFlavor::VipsBackoff:
        // Fig. 8 right: the atomic goes to the LLC; back-off throttles it.
        a.bind(acq);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndSet, 1, 0,
                 false, WakePolicy::All)
            .spin = true;
        a.bnez(sreg::val, acq);
        break;

      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne: {
        // Fig. 9: a non-callback T&S guard (§3.3), then a callback T&S
        // spin loop that is held in the callback directory.
        const WakePolicy wp = takePolicy(flavor);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndSet, 1, 0,
                 false, wp);
        a.beqz(sreg::val, cs);
        a.bind(spn);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndSet, 1, 0,
                 true, wp);
        a.bnez(sreg::val, spn);
        a.bind(cs);
        break;
      }
    }
    if (fenced(flavor))
        a.selfInvl();
    if (record)
        a.recordEnd(SyncKind::Acquire);
}

void
emitTtasAcquire(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
                bool record)
{
    if (record)
        a.recordStart(SyncKind::Acquire);
    a.movImm(sreg::addr, lock.lockWord);
    const Label acq = a.newLabel();
    const Label spn = a.newLabel();
    const Label tas = a.newLabel();
    const Label cs = a.newLabel();

    switch (flavor) {
      case SyncFlavor::Mesi: {
        // Fig. 10 left: the first Test spins on the cached copy.
        a.bind(acq);
        auto& test = a.ld(sreg::val, sreg::addr);
        test.sync = true;
        test.spin = true;
        a.bnez(sreg::val, acq);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndSet, 1, 0,
                 false, WakePolicy::None);
        a.bnez(sreg::val, acq);
        break;
      }

      case SyncFlavor::VipsBackoff:
        // Fig. 10 right: ld_through spin with back-off.
        a.bind(acq);
        a.ldThrough(sreg::val, sreg::addr).spin = true;
        a.bnez(sreg::val, acq);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndSet, 1, 0,
                 false, WakePolicy::All);
        a.bnez(sreg::val, acq);
        break;

      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne: {
        // Fig. 11: guard ld_through, ld_cb spin as the first Test, and a
        // non-callback T&S whose write is cbA (all) or cb0 (one).
        const WakePolicy wp = takePolicy(flavor);
        a.ldThrough(sreg::val, sreg::addr);
        a.beqz(sreg::val, tas);
        a.bind(spn);
        a.ldCb(sreg::val, sreg::addr);
        a.bnez(sreg::val, spn);
        a.bind(tas);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndSet, 1, 0,
                 false, wp);
        a.bnez(sreg::val, spn);
        a.bind(cs);
        break;
      }
    }
    if (fenced(flavor))
        a.selfInvl();
    if (record)
        a.recordEnd(SyncKind::Acquire);
}

void
emitFlagRelease(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
                bool record)
{
    if (record)
        a.recordStart(SyncKind::Release);
    if (fenced(flavor))
        a.selfDown();
    a.movImm(sreg::addr, lock.lockWord);
    switch (flavor) {
      case SyncFlavor::Mesi:
        a.stImm(0, sreg::addr).sync = true;
        break;
      case SyncFlavor::VipsBackoff:
      case SyncFlavor::CbAll:
        a.stThroughImm(0, sreg::addr);
        break;
      case SyncFlavor::CbOne:
        // Fig. 9/11 right: the release wakes exactly one waiter.
        a.stCb1Imm(0, sreg::addr);
        break;
    }
    if (record)
        a.recordEnd(SyncKind::Release);
}

void
emitClhAcquire(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
               CoreId tid, bool record)
{
    // Private per-thread line: [0] = I (my node), [8] = saved pred.
    const Addr priv = lock.privateState.at(tid);
    if (record)
        a.recordStart(SyncKind::Acquire);

    a.movImm(sreg::tmp, priv);
    a.ld(sreg::node, sreg::tmp, 0); // I

    // succ_wait(I) = 1, then swap my node into the tail.
    const bool f = fenced(flavor);
    if (f)
        a.stThroughImm(1, sreg::node, 0);
    else {
        a.stImm(1, sreg::node, 0).sync = true;
    }
    a.movImm(sreg::addr, lock.lockWord);
    a.atomicReg(sreg::pred, sreg::addr, 0, AtomicFunc::FetchAndStore,
                sreg::node, 0, false, f ? WakePolicy::All
                                        : WakePolicy::None);
    // Save pred for the release ($i->prev in Fig. 12).
    a.st(sreg::pred, sreg::tmp, 8);

    const Label spn = a.newLabel();
    const Label cs = a.newLabel();
    switch (flavor) {
      case SyncFlavor::Mesi: {
        a.bind(spn);
        auto& spin_ld = a.ld(sreg::val, sreg::pred, 0);
        spin_ld.sync = true;
        spin_ld.spin = true;
        a.bnez(sreg::val, spn);
        break;
      }
      case SyncFlavor::VipsBackoff:
        a.bind(spn);
        a.ldThrough(sreg::val, sreg::pred, 0).spin = true;
        a.bnez(sreg::val, spn);
        break;
      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne:
        // Fig. 13: guard ld_through, then the ld_cb spin loop.
        a.ldThrough(sreg::val, sreg::pred, 0);
        a.beqz(sreg::val, cs);
        a.bind(spn);
        a.ldCb(sreg::val, sreg::pred, 0);
        a.bnez(sreg::val, spn);
        a.bind(cs);
        break;
    }
    if (f)
        a.selfInvl();
    if (record)
        a.recordEnd(SyncKind::Acquire);
}

void
emitClhRelease(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
               CoreId tid, bool record)
{
    const Addr priv = lock.privateState.at(tid);
    if (record)
        a.recordStart(SyncKind::Release);
    if (fenced(flavor))
        a.selfDown();

    a.movImm(sreg::tmp, priv);
    a.ld(sreg::node, sreg::tmp, 0); // I
    a.ld(sreg::pred, sreg::tmp, 8); // saved pred

    // succ_wait(I) = 0 hands the lock to the successor; recycle pred.
    switch (flavor) {
      case SyncFlavor::Mesi:
        a.stImm(0, sreg::node, 0).sync = true;
        break;
      case SyncFlavor::VipsBackoff:
      case SyncFlavor::CbAll:
        a.stThroughImm(0, sreg::node, 0);
        break;
      case SyncFlavor::CbOne:
        // Only one thread ever spins on this word; waking "one" and
        // waking "all" coincide (paper §3.4.3).
        a.stCb1Imm(0, sreg::node, 0);
        break;
    }
    a.st(sreg::pred, sreg::tmp, 0); // I = pred
    if (record)
        a.recordEnd(SyncKind::Release);
}

/** Racy spin until mem[base] equals regs[want] (flavour idiom). */
void
emitLockSpinUntilEqual(Assembler& a, SyncFlavor flavor, Reg base,
                       Reg want, std::int64_t off = 0)
{
    const Label spn = a.newLabel();
    const Label out = a.newLabel();
    switch (flavor) {
      case SyncFlavor::Mesi: {
        a.bind(spn);
        auto& spin_ld = a.ld(sreg::val, base, off);
        spin_ld.sync = true;
        spin_ld.spin = true;
        a.bne(sreg::val, want, spn);
        break;
      }
      case SyncFlavor::VipsBackoff:
        a.bind(spn);
        a.ldThrough(sreg::val, base, off).spin = true;
        a.bne(sreg::val, want, spn);
        break;
      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne:
        a.ldThrough(sreg::val, base, off); // §3.3 guard
        a.beq(sreg::val, want, out);
        a.bind(spn);
        a.ldCb(sreg::val, base, off);
        a.bne(sreg::val, want, spn);
        a.bind(out);
        break;
    }
}

/** Racy spin until mem[base] == 0. Leaves the last value in sreg::val. */
void
emitLockSpinUntilZero(Assembler& a, SyncFlavor flavor, Reg base,
                      std::int64_t off = 0)
{
    const Label spn = a.newLabel();
    const Label out = a.newLabel();
    switch (flavor) {
      case SyncFlavor::Mesi: {
        a.bind(spn);
        auto& spin_ld = a.ld(sreg::val, base, off);
        spin_ld.sync = true;
        spin_ld.spin = true;
        a.bnez(sreg::val, spn);
        break;
      }
      case SyncFlavor::VipsBackoff:
        a.bind(spn);
        a.ldThrough(sreg::val, base, off).spin = true;
        a.bnez(sreg::val, spn);
        break;
      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne:
        a.ldThrough(sreg::val, base, off);
        a.beqz(sreg::val, out);
        a.bind(spn);
        a.ldCb(sreg::val, base, off);
        a.bnez(sreg::val, spn);
        a.bind(out);
        break;
    }
}

/** Racy spin until mem[base] != 0 (MCS wait-for-successor link). */
void
emitLockSpinUntilNonZero(Assembler& a, SyncFlavor flavor, Reg base,
                         std::int64_t off = 0)
{
    const Label spn = a.newLabel();
    const Label out = a.newLabel();
    switch (flavor) {
      case SyncFlavor::Mesi: {
        a.bind(spn);
        auto& spin_ld = a.ld(sreg::val, base, off);
        spin_ld.sync = true;
        spin_ld.spin = true;
        a.beqz(sreg::val, spn);
        break;
      }
      case SyncFlavor::VipsBackoff:
        a.bind(spn);
        a.ldThrough(sreg::val, base, off).spin = true;
        a.beqz(sreg::val, spn);
        break;
      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne:
        a.ldThrough(sreg::val, base, off);
        a.bnez(sreg::val, out);
        a.bind(spn);
        a.ldCb(sreg::val, base, off);
        a.beqz(sreg::val, spn);
        a.bind(out);
        break;
    }
}

/**
 * Ticket lock (extension). Acquire: my = fetch&inc(next_ticket); spin
 * until now_serving == my. Release: now_serving = my + 1. The release
 * must wake ALL waiters even in the callback-one flavour — waiters spin
 * for *different* ticket values, so waking one (possibly the wrong one)
 * would strand the rightful owner; st_cbA is the correct encoding.
 * The ticket is held in sreg::node across the critical section, so
 * Ticket/MCS critical sections must not nest.
 */
void
emitTicketAcquire(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
                  bool record)
{
    const bool f = fenced(flavor);
    if (record)
        a.recordStart(SyncKind::Acquire);
    a.movImm(sreg::addr, lock.aux); // next_ticket
    a.atomic(sreg::node, sreg::addr, 0, AtomicFunc::FetchAndAdd, 1, 0,
             false, f ? WakePolicy::All : WakePolicy::None);
    a.movImm(sreg::addr, lock.lockWord); // now_serving
    emitLockSpinUntilEqual(a, flavor, sreg::addr, sreg::node);
    if (f)
        a.selfInvl();
    if (record)
        a.recordEnd(SyncKind::Acquire);
}

void
emitTicketRelease(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
                  bool record)
{
    if (record)
        a.recordStart(SyncKind::Release);
    if (fenced(flavor))
        a.selfDown();
    a.movImm(sreg::addr, lock.lockWord);
    a.addImm(sreg::val, sreg::node, 1); // my ticket + 1
    if (fenced(flavor))
        a.stThrough(sreg::val, sreg::addr); // broadcast: see doc above
    else
        a.st(sreg::val, sreg::addr).sync = true;
    if (record)
        a.recordEnd(SyncKind::Release);
}

/**
 * MCS queue lock (extension). Per-thread node [0]=locked, [8]=next.
 * Exactly one thread spins on any word, so callback-all and
 * callback-one coincide; the hand-off uses st_cb1 in the CB-One
 * flavour like CLH. The release CAS uses T&S with the node address as
 * the compare value (a generation-time constant).
 */
void
emitMcsAcquire(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
               CoreId tid, bool record)
{
    const bool f = fenced(flavor);
    const Addr my_node = lock.nodes.at(tid);
    const Label have_lock = a.newLabel();
    if (record)
        a.recordStart(SyncKind::Acquire);

    a.movImm(sreg::node, my_node);
    if (f) {
        a.stThroughImm(0, sreg::node, 8); // next = nil
        a.stThroughImm(1, sreg::node, 0); // locked = 1
    } else {
        a.stImm(0, sreg::node, 8).sync = true;
        a.stImm(1, sreg::node, 0).sync = true;
    }
    a.movImm(sreg::addr, lock.lockWord); // tail
    a.atomicReg(sreg::pred, sreg::addr, 0, AtomicFunc::FetchAndStore,
                sreg::node, 0, false,
                f ? WakePolicy::All : WakePolicy::None);
    a.beqz(sreg::pred, have_lock); // empty queue: lock acquired

    // Link behind the predecessor; this write may wake a releaser
    // blocked on its "next" word, so it is a wake-all store-through.
    if (f)
        a.stThrough(sreg::node, sreg::pred, 8);
    else
        a.st(sreg::node, sreg::pred, 8).sync = true;

    // Spin on my own locked flag until the predecessor hands off.
    emitLockSpinUntilZero(a, flavor, sreg::node);

    a.bind(have_lock);
    if (f)
        a.selfInvl();
    if (record)
        a.recordEnd(SyncKind::Acquire);
}

void
emitMcsRelease(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
               CoreId tid, bool record)
{
    const bool f = fenced(flavor);
    const Addr my_node = lock.nodes.at(tid);
    const Label handoff = a.newLabel();
    const Label done = a.newLabel();
    if (record)
        a.recordStart(SyncKind::Release);
    if (f)
        a.selfDown();

    a.movImm(sreg::node, my_node);
    // Known successor?
    if (f)
        a.ldThrough(sreg::val, sreg::node, 8);
    else
        a.ld(sreg::val, sreg::node, 8).sync = true;
    a.bnez(sreg::val, handoff);

    // No successor visible: CAS(tail, my_node, 0).
    a.movImm(sreg::addr, lock.lockWord);
    a.atomic(sreg::tmp, sreg::addr, 0, AtomicFunc::TestAndSet, 0,
             /*compare=*/my_node, false,
             f ? WakePolicy::All : WakePolicy::None);
    a.movImm(sreg::val, my_node);
    a.beq(sreg::tmp, sreg::val, done); // CAS succeeded: queue empty

    // A successor is enqueuing: wait for its link write.
    emitLockSpinUntilNonZero(a, flavor, sreg::node, 8);

    a.bind(handoff);
    // sreg::val holds the successor's node pointer.
    switch (flavor) {
      case SyncFlavor::Mesi:
        a.stImm(0, sreg::val, 0).sync = true;
        break;
      case SyncFlavor::VipsBackoff:
      case SyncFlavor::CbAll:
        a.stThroughImm(0, sreg::val, 0);
        break;
      case SyncFlavor::CbOne:
        a.stCb1Imm(0, sreg::val, 0);
        break;
    }
    a.bind(done);
    if (record)
        a.recordEnd(SyncKind::Release);
}

} // namespace

LockHandle
makeLock(SyncLayout& layout, LockAlgo algo, unsigned num_threads)
{
    return makeLock(layout, algo, num_threads, layout.autoName("lock"));
}

LockHandle
makeLock(SyncLayout& layout, LockAlgo algo, unsigned num_threads,
         const std::string& name)
{
    LockHandle h;
    h.algo = algo;
    h.lockWord = layout.allocLine();

    if (algo == LockAlgo::Ticket) {
        layout.init(h.lockWord, 0); // now_serving
        h.aux = layout.allocLine();
        layout.init(h.aux, 0); // next_ticket
    } else if (algo == LockAlgo::Mcs) {
        layout.init(h.lockWord, 0); // tail: empty queue
        h.nodes.reserve(num_threads);
        for (CoreId t = 0; t < num_threads; ++t) {
            const Addr node = layout.allocLine();
            layout.init(node + 0, 0); // locked
            layout.init(node + 8, 0); // next
            h.nodes.push_back(node);
        }
    } else if (algo != LockAlgo::Clh) {
        layout.init(h.lockWord, 0); // flag lock starts free
    } else {
        // Tail starts pointing at a released node. Node lines are also
        // recorded in h.nodes (as for MCS) so they can be named.
        const Addr initial_node = layout.allocLine();
        layout.init(initial_node, 0); // succ_wait = 0
        layout.init(h.lockWord, initial_node);
        h.nodes.reserve(num_threads + 1);
        h.nodes.push_back(initial_node);
        h.privateState.reserve(num_threads);
        for (CoreId t = 0; t < num_threads; ++t) {
            const Addr node = layout.allocLine();
            layout.init(node, 0);
            h.nodes.push_back(node);
            const Addr priv = layout.allocPrivateLine(t);
            layout.init(priv + 0, node); // I
            layout.init(priv + 8, 0);    // prev
            h.privateState.push_back(priv);
        }
    }

    if (!name.empty()) {
        layout.nameLine(h.lockWord, name);
        if (h.aux != 0)
            layout.nameLine(h.aux, name + ".next_ticket");
        for (std::size_t i = 0; i < h.nodes.size(); ++i)
            layout.nameLine(h.nodes[i], name + ".node" + std::to_string(i));
    }
    return h;
}

void
emitAcquire(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
            CoreId tid, bool record)
{
    switch (lock.algo) {
      case LockAlgo::TestAndSet:
        emitTasAcquire(a, lock, flavor, record);
        break;
      case LockAlgo::TestAndTestAndSet:
        emitTtasAcquire(a, lock, flavor, record);
        break;
      case LockAlgo::Clh:
        emitClhAcquire(a, lock, flavor, tid, record);
        break;
      case LockAlgo::Ticket:
        emitTicketAcquire(a, lock, flavor, record);
        break;
      case LockAlgo::Mcs:
        emitMcsAcquire(a, lock, flavor, tid, record);
        break;
    }
}

void
emitRelease(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
            CoreId tid, bool record)
{
    switch (lock.algo) {
      case LockAlgo::TestAndSet:
      case LockAlgo::TestAndTestAndSet:
        emitFlagRelease(a, lock, flavor, record);
        break;
      case LockAlgo::Clh:
        emitClhRelease(a, lock, flavor, tid, record);
        break;
      case LockAlgo::Ticket:
        emitTicketRelease(a, lock, flavor, record);
        break;
      case LockAlgo::Mcs:
        emitMcsRelease(a, lock, flavor, tid, record);
        break;
    }
}

} // namespace cbsim
