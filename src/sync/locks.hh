/**
 * @file
 * Lock algorithms of the paper (Figures 8-13): Test&Set,
 * Test-and-Test&Set, and the CLH queue lock — each encoded for the four
 * synchronization flavours (MESI, VIPS with LLC spinning/back-off,
 * callback-all, callback-one).
 *
 * Register convention: emitters use r10..r15 as scratch; workload code
 * owns r0..r9. Per-thread persistent lock state (CLH node/pred pointers,
 * barrier senses) lives in thread-private memory, which first-touch
 * classification keeps out of self-invalidation.
 */

#ifndef CBSIM_SYNC_LOCKS_HH
#define CBSIM_SYNC_LOCKS_HH

#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "sync/layout.hh"
#include "system/chip_config.hh"

namespace cbsim {

/** How a program encodes its synchronization (paper §3.4). */
enum class SyncFlavor : std::uint8_t
{
    Mesi,        ///< unfenced, cached spinning (Figs. 8/10/12/14/16/18 left)
    VipsBackoff, ///< fenced, LLC spinning with back-off (right columns)
    CbAll,       ///< callback-all encodings (Figs. 9/11/13/15/17/19)
    CbOne,       ///< callback-one encodings
};

/** The flavour a given evaluated technique runs. */
SyncFlavor syncFlavorFor(Technique t);

const char* syncFlavorName(SyncFlavor f);

/**
 * Lock algorithm selector. The paper evaluates T&T&S (naive) and CLH
 * (scalable); Ticket and MCS come from the same scalable-synchronization
 * collection ([1], Mellor-Crummey & Scott) and are provided as
 * extensions with callback encodings derived by the paper's rules.
 */
enum class LockAlgo : std::uint8_t
{
    TestAndSet,
    TestAndTestAndSet,
    Clh,
    Ticket,
    Mcs,
};

const char* lockAlgoName(LockAlgo a);

/** Scratch registers reserved for sync emitters. */
namespace sreg {
inline constexpr Reg val = 14;   ///< loaded/spun values
inline constexpr Reg addr = 15;  ///< current sync address
inline constexpr Reg tmp = 13;
inline constexpr Reg node = 12;  ///< CLH: my node pointer
inline constexpr Reg pred = 11;  ///< CLH: predecessor pointer
inline constexpr Reg sense = 10; ///< barriers: local sense
} // namespace sreg

/**
 * A lock instance in simulated memory. For CLH, per-thread queue nodes
 * and the private I/prev words are pre-allocated for every thread.
 */
struct LockHandle
{
    LockAlgo algo = LockAlgo::TestAndTestAndSet;

    Addr lockWord = 0; ///< flag, CLH/MCS tail pointer, or now_serving

    /** Ticket: the next_ticket counter (its own line). */
    Addr aux = 0;

    // CLH only:
    std::vector<Addr> privateState; ///< per-thread line: [I, prev]

    /**
     * Queue node lines. MCS: one per thread ([locked, next]), indexed
     * by tid. CLH: the initial released node followed by one node per
     * thread — emitters never index these (CLH reaches nodes through
     * privateState); makeLock names them, as the lines threads spin on.
     */
    std::vector<Addr> nodes;
};

/**
 * Allocate and initialize a lock named "lockN" in @p layout. CLH
 * allocates numThreads+1 nodes and initializes the tail to a released
 * node.
 */
LockHandle makeLock(SyncLayout& layout, LockAlgo algo,
                    unsigned num_threads);

/**
 * As above, with the lock's lines named after @p name: the lock word
 * @p name, the Ticket counter "<name>.next_ticket" and the queue nodes
 * "<name>.nodeI". An empty @p name leaves them unnamed.
 */
LockHandle makeLock(SyncLayout& layout, LockAlgo algo,
                    unsigned num_threads, const std::string& name);

/**
 * Emit the acquire sequence for @p lock into @p a, for thread @p tid.
 * @param record wrap in Record(Acquire) markers (off for barrier-internal
 *        locks so lock and barrier statistics stay separable)
 */
void emitAcquire(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
                 CoreId tid, bool record = true);

/** Emit the release sequence (including the self-down fence). */
void emitRelease(Assembler& a, const LockHandle& lock, SyncFlavor flavor,
                 CoreId tid, bool record = true);

} // namespace cbsim

#endif // CBSIM_SYNC_LOCKS_HH
