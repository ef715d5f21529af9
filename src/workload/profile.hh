/**
 * @file
 * Workload profiles: the synchronization skeleton + DRF data traffic of
 * one benchmark (see DESIGN.md §5 for the substitution rationale).
 *
 * A profile captures what the paper's metrics are sensitive to: how many
 * barrier-separated phases a benchmark has, how contended its locks are,
 * how long its critical sections run, how imbalanced the inter-sync work
 * is, and how much race-free shared data moves between threads. The
 * program generator expands a profile into one mini-ISA program per
 * thread, parameterized by the synchronization flavour under test.
 */

#ifndef CBSIM_WORKLOAD_PROFILE_HH
#define CBSIM_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cbsim {

/** One benchmark's synchronization skeleton. */
struct Profile
{
    std::string name;
    std::string suite; ///< "splash2" or "parsec"

    // Phase structure: phases are separated by a global barrier.
    unsigned phases = 8;

    // Inter-sync compute, in cycles, jittered per thread/phase.
    std::uint64_t workMean = 1500;
    double workImbalance = 0.35; ///< uniform +/- fraction around the mean

    // Lock behaviour.
    unsigned numLocks = 8;          ///< distinct lock objects
    unsigned lockAcqPerPhase = 3;   ///< acquisitions per thread per phase
    std::uint64_t csWork = 120;     ///< critical-section compute (cycles)
    double hotLockFraction = 0.0;   ///< P(acquisition hits lock 0)
    bool lockedSharedData = true;   ///< touch a lock-guarded data word

    // DRF shared-data traffic per work quantum.
    unsigned sharedLines = 256;   ///< shared array footprint (lines)
    unsigned dataOpsPerUnit = 10; ///< loads+stores per quantum
    double storeFraction = 0.3;
    bool neighborSharing = true;  ///< phase-rotated producer/consumer

    // Thread-private data traffic (exempt from self-invalidation).
    unsigned privOpsPerUnit = 6;

    // Optional signal/wait pipeline (dedup/x264-style stages).
    bool pipeline = false;

    std::uint64_t seed = 0xC0FFEEULL;

    /** Rough per-thread dynamic instruction weight (for test sizing). */
    std::uint64_t approxWorkPerThread() const;

    bool operator==(const Profile&) const = default;
};

} // namespace cbsim

#endif // CBSIM_WORKLOAD_PROFILE_HH
