/**
 * @file
 * Barrier algorithms of the paper (Figures 14-17): the centralized
 * sense-reversing (SR) barrier and the tree sense-reversing (TreeSR)
 * barrier, encoded for all four synchronization flavours.
 *
 * Per the paper's §5.2, the evaluated SR barrier follows the Splash-2
 * POSIX implementation: the counter is updated under a lock (the
 * companion lock algorithm) rather than with a single atomic. The pure
 * fetch&decrement variant of Fig. 14/15 is also available (atomicCounter).
 *
 * The TreeSR barrier uses a binary arrival/wake-up tree. The paper packs
 * per-child "not-ready" flags into one word (byte stores); our simulated
 * memory is word-granular, so each child flag is its own word and the
 * parent spins on each in turn — the single-writer/single-spinner
 * behaviour per word that makes the algorithm callback-friendly is
 * identical (see DESIGN.md).
 */

#ifndef CBSIM_SYNC_BARRIERS_HH
#define CBSIM_SYNC_BARRIERS_HH

#include "sync/locks.hh"

namespace cbsim {

/** Which barrier algorithm a handle encodes. */
enum class BarrierAlgo : std::uint8_t
{
    SenseReversing,
    TreeSenseReversing,
};

const char* barrierAlgoName(BarrierAlgo a);

/** A barrier instance in simulated memory. */
struct BarrierHandle
{
    BarrierAlgo algo = BarrierAlgo::SenseReversing;
    unsigned numThreads = 0;

    // SR barrier:
    Addr counter = 0;         ///< arrivals remaining
    Addr senseWord = 0;       ///< global sense
    bool atomicCounter = false; ///< Fig. 14 single-atomic variant
    LockHandle counterLock;   ///< Splash-2-style lock-protected counter

    // TreeSR barrier (per thread):
    std::vector<Addr> childNotReady0; ///< child-0 arrival flag
    std::vector<Addr> childNotReady1; ///< child-1 arrival flag
    std::vector<Addr> wakeSense;      ///< written by the parent

    // Both: per-thread private line holding the local sense.
    std::vector<Addr> localSense;
};

/**
 * Allocate an SR barrier whose counter is protected by a fresh lock of
 * @p counter_lock_algo (the paper's naive/scalable pairing: T&T&S or CLH).
 * Its lines are named "barrierN.counter", "barrierN.sense" and, for the
 * lock, "barrierN.lock" (see makeLock).
 */
BarrierHandle makeSrBarrier(SyncLayout& layout, unsigned num_threads,
                            LockAlgo counter_lock_algo);

/**
 * Allocate the Fig. 14 variant with a single atomic fetch&decrement. It
 * never takes its counter lock, so the lock's lines stay unnamed.
 */
BarrierHandle makeSrBarrierAtomic(SyncLayout& layout,
                                  unsigned num_threads);

/**
 * Allocate a TreeSR barrier over a binary tree of @p num_threads. Each
 * thread's lines are named "barrierN.cnr0.T", "barrierN.cnr1.T" and
 * "barrierN.wake.T".
 */
BarrierHandle makeTreeBarrier(SyncLayout& layout, unsigned num_threads);

/** Emit a full barrier episode for thread @p tid. */
void emitBarrier(Assembler& a, const BarrierHandle& barrier,
                 SyncFlavor flavor, CoreId tid, bool record = true);

} // namespace cbsim

#endif // CBSIM_SYNC_BARRIERS_HH
