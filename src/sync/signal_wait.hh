/**
 * @file
 * Signal/wait synchronization on a counting flag (paper Figures 18-19).
 *
 * signal() atomically increments the counter C and (in the callback
 * flavours) wakes all or one waiter; wait() spins until C > 0 and then
 * consumes one token with a Test&Decrement whose write half is st_cb0.
 */

#ifndef CBSIM_SYNC_SIGNAL_WAIT_HH
#define CBSIM_SYNC_SIGNAL_WAIT_HH

#include "sync/locks.hh"

namespace cbsim {

/** A signal/wait counter in simulated memory. */
struct SignalHandle
{
    Addr counter = 0;
};

/** Allocate a signal/wait counter named "signalN", initialized to zero. */
SignalHandle makeSignal(SyncLayout& layout);

/** Emit the signal side (fetch&increment; Fig. 18/19 "sig:"). */
void emitSignal(Assembler& a, const SignalHandle& s, SyncFlavor flavor,
                bool record = true);

/** Emit the wait side (spin + test&decrement; Fig. 18/19 "spn:/tad:"). */
void emitWait(Assembler& a, const SignalHandle& s, SyncFlavor flavor,
              bool record = true);

} // namespace cbsim

#endif // CBSIM_SYNC_SIGNAL_WAIT_HH
