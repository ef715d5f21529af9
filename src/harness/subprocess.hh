/**
 * @file
 * Process isolation for sweep jobs (docs/ROBUSTNESS.md §Crash-safe
 * sweeps).
 *
 * Under `--isolate`, each SweepJob runs in a forked child that sends
 * its cell's artifact row (result_codec.hh), wrapped with the two
 * host-only counters `events` and `sim_wall_ms`, back over a pipe and
 * then _exit()s. Anything that would have taken the
 * whole sweep down — a segfault, an OOM kill, an abort() from a
 * corrupted invariant — now takes down one child, and the parent
 * classifies the loss as the `crashed` JobStatus while sibling cells
 * keep running. Failures the child can catch (fatal(), panic(),
 * watchdog TimeoutError) are classified *in the child* by the same
 * runJob() the inline path calls and travel back in the row, so an
 * isolated sweep reports byte-identical rows to an inline one.
 *
 * Forensic dumps need no special plumbing: the child shares the
 * filesystem, so a chip crash writes
 * `<forensicDir>/<label>.forensic.json` exactly as an inline job would
 * (src/debug/forensics.hh), and quarantine picks the file up from
 * there.
 */

#ifndef CBSIM_HARNESS_SUBPROCESS_HH
#define CBSIM_HARNESS_SUBPROCESS_HH

#include <condition_variable>
#include <mutex>

#include "debug/debug_config.hh"
#include "harness/sweep.hh"

namespace cbsim {

/**
 * Makes fork(2) safe from a multithreaded sweep pool.
 *
 * A forked child inherits only the forking thread; a lock any other
 * thread held at that instant stays locked in the child forever. glibc
 * malloc re-arms its arenas across fork(2), but other allocators (the
 * ASan runtime's among them) do not, so a child forked while a sibling
 * worker was inside malloc can deadlock on its first allocation. The
 * gate closes that window: every pool thread holds a *share* whenever
 * it may touch the heap or another process-wide lock, gives it up only
 * while blocked on a child, and a fork waits until no other thread
 * holds a share. Shares never wait for a waiting fork, only for one in
 * progress, so a thread that blocks while holding a share cannot
 * deadlock the pool; it can only delay the next fork.
 */
class ForkGate
{
  public:
    /** Take a share (blocks while a fork is in progress). */
    void enter();
    /** Give the calling thread's share back. */
    void leave();

    /** Scoped release of the caller's share around a blocking wait
     * that touches neither the heap nor any shared lock. Null = no
     * gate (single-threaded sweep). */
    class Away
    {
      public:
        explicit Away(ForkGate* gate) : gate_(gate)
        {
            if (gate_ != nullptr)
                gate_->leave();
        }
        ~Away()
        {
            if (gate_ != nullptr)
                gate_->enter();
        }
        Away(const Away&) = delete;
        Away& operator=(const Away&) = delete;

      private:
        ForkGate* gate_;
    };

    /** Scoped exclusive section for a caller holding a share: on entry
     * no other thread holds one, and none can take one until it ends.
     * A forked child never leaves it (it only _exit()s). */
    class Exclusive
    {
      public:
        explicit Exclusive(ForkGate* gate);
        ~Exclusive();
        Exclusive(const Exclusive&) = delete;
        Exclusive& operator=(const Exclusive&) = delete;

      private:
        ForkGate* gate_;
    };

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    unsigned shares_ = 0;
    bool forking_ = false;
};

/**
 * The poll(2) timeout for a parent-side backstop of @p hard_timeout_s
 * seconds: -1 (wait forever) when it is not positive, else rounded up
 * to whole milliseconds (a sub-millisecond budget still arms it) and
 * saturated at INT_MAX (about 24.8 days) instead of overflowing.
 */
int backstopPollMs(double hard_timeout_s);

/**
 * Run @p job to completion in a forked child.
 *
 * @param job the sweep cell to execute
 * @param dcfg debug configuration the child installs as a DebugScope
 *        around the run (label = job key, per-job wall budget), exactly
 *        mirroring the inline execution path
 * @param hard_timeout_s parent-side backstop: if the child is still
 *        alive after this many seconds it is SIGKILLed and the cell is
 *        classified TimedOut (covers a child too wedged for the
 *        cooperative watchdog to fire). 0 disables the backstop.
 * @param kill_child chaos hook (`kill-child` fault site): the child
 *        SIGKILLs itself before running the job, simulating a hard
 *        crash. Decided in the parent so the fault counter lives in
 *        exactly one process.
 * @param gate the pool's fork gate, of which the caller holds a share;
 *        null when the caller is the only thread
 * @return the cell's outcome; `status == JobStatus::Crashed` when the
 *         child died without delivering a payload
 */
JobOutcome runJobIsolated(const SweepJob& job, const DebugConfig& dcfg,
                          double hard_timeout_s, bool kill_child,
                          ForkGate* gate = nullptr);

} // namespace cbsim

#endif // CBSIM_HARNESS_SUBPROCESS_HH
