/**
 * @file
 * Expands a workload Profile into per-thread mini-ISA programs for a
 * given synchronization flavour and lock/barrier algorithm choice.
 *
 * The random structure (lock choices, work jitter, data-access patterns)
 * is a pure function of the profile seed and thread id, so the *same*
 * workload is replayed across all evaluated techniques — only the
 * synchronization encodings differ (paper §5.2 methodology).
 */

#ifndef CBSIM_WORKLOAD_PROGRAM_GEN_HH
#define CBSIM_WORKLOAD_PROGRAM_GEN_HH

#include <vector>

#include "sync/barriers.hh"
#include "sync/layout.hh"
#include "sync/locks.hh"
#include "sync/signal_wait.hh"
#include "workload/profile.hh"

namespace cbsim {

/** A fully generated workload: memory layout + one program per thread. */
struct WorkloadBuild
{
    SyncLayout layout;
    std::vector<Program> programs;

    std::vector<LockHandle> locks;
    BarrierHandle barrier;
    std::vector<SignalHandle> signals; ///< pipeline stage handoffs

    /** Lock-guarded counter words (mutual-exclusion invariant). */
    std::vector<Addr> guardWords;
    /** Expected final value of each guard word. */
    std::vector<std::uint64_t> expectedGuardCounts;

    /** Barrier-phase counter words, one per thread (private pages). */
    std::vector<Addr> phaseWords;
};

/**
 * Generate the workload.
 *
 * @param threads  number of threads (== cores)
 * @param flavor   synchronization encoding under test
 * @param lock_algo   naive (T&T&S) or scalable (CLH) locks (§5.2)
 * @param barrier_algo SR (naive) or TreeSR (scalable) barrier
 */
WorkloadBuild buildWorkload(const Profile& profile, unsigned threads,
                            SyncFlavor flavor, LockAlgo lock_algo,
                            BarrierAlgo barrier_algo);

} // namespace cbsim

#endif // CBSIM_WORKLOAD_PROGRAM_GEN_HH
