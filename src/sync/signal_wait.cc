#include "sync/signal_wait.hh"

#include <string>

namespace cbsim {

namespace {

bool
fenced(SyncFlavor f)
{
    return f != SyncFlavor::Mesi;
}

} // namespace

SignalHandle
makeSignal(SyncLayout& layout)
{
    SignalHandle s;
    s.name = layout.autoName("signal");
    s.counter = layout.allocLine();
    layout.init(s.counter, 0);
    return s;
}

namespace {

/**
 * Name the signal's counter in @p a. The name is the handle's own
 * string, so a repeat emission costs dataSymbol's one lookup.
 */
void
registerSignalSymbol(Assembler& a, const SignalHandle& s)
{
    if (!s.name.empty())
        a.dataSymbol(s.name, s.counter);
}

} // namespace

void
emitSignal(Assembler& a, const SignalHandle& s, SyncFlavor flavor,
           bool record)
{
    registerSignalSymbol(a, s);
    if (record)
        a.recordStart(SyncKind::Signal);
    if (fenced(flavor))
        a.selfDown(); // Fig. 18/19: "sig: self_down"
    a.movImm(sreg::addr, s.counter);

    WakePolicy wake = WakePolicy::None;
    switch (flavor) {
      case SyncFlavor::Mesi:
        wake = WakePolicy::None;
        break;
      case SyncFlavor::VipsBackoff:
      case SyncFlavor::CbAll:
        wake = WakePolicy::All; // ld&stA (Fig. 19 left)
        break;
      case SyncFlavor::CbOne:
        wake = WakePolicy::One; // ld&st1: each signal wakes one waiter
        break;
    }
    a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::FetchAndAdd, 1, 0,
             false, wake);
    if (record)
        a.recordEnd(SyncKind::Signal);
}

void
emitWait(Assembler& a, const SignalHandle& s, SyncFlavor flavor,
         bool record)
{
    registerSignalSymbol(a, s);
    if (record)
        a.recordStart(SyncKind::Wait);
    a.movImm(sreg::addr, s.counter);
    const auto spn = a.uniqueLabel("spn");
    const auto tad = a.uniqueLabel("tad");

    const WakePolicy consume_wake =
        fenced(flavor) ? (flavor == SyncFlavor::VipsBackoff
                              ? WakePolicy::All
                              : WakePolicy::Zero) // ld&st0 (Fig. 19)
                       : WakePolicy::None;

    switch (flavor) {
      case SyncFlavor::Mesi: {
        a.label(spn);
        auto& spin_ld = a.ld(sreg::val, sreg::addr);
        spin_ld.sync = true;
        spin_ld.spin = true;
        a.beqz(sreg::val, spn);
        a.label(tad);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndDec, 0, 0,
                 false, consume_wake);
        a.beqz(sreg::val, spn);
        break;
      }

      case SyncFlavor::VipsBackoff:
        a.label(spn);
        a.ldThrough(sreg::val, sreg::addr).spin = true;
        a.beqz(sreg::val, spn);
        a.label(tad);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndDec, 0, 0,
                 false, consume_wake);
        a.beqz(sreg::val, spn);
        break;

      case SyncFlavor::CbAll:
      case SyncFlavor::CbOne:
        // Fig. 19: guard ld_through, ld_cb spin, ld&st0 consume.
        a.ldThrough(sreg::val, sreg::addr);
        a.bnez(sreg::val, tad);
        a.label(spn);
        a.ldCb(sreg::val, sreg::addr);
        a.beqz(sreg::val, spn);
        a.label(tad);
        a.atomic(sreg::val, sreg::addr, 0, AtomicFunc::TestAndDec, 0, 0,
                 false, consume_wake);
        a.beqz(sreg::val, spn);
        break;
    }
    if (fenced(flavor))
        a.selfInvl();
    if (record)
        a.recordEnd(SyncKind::Wait);
}

} // namespace cbsim
