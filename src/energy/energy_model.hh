/**
 * @file
 * Static energy model converting run metrics into the paper's Figure 22
 * breakdown (L1 / LLC / network energy).
 *
 * Per-event energies are CACTI-6.5-inspired constants for a 32 nm
 * process (the paper's methodology, §5.1). Only the *relative* weights
 * matter for the figure's shape; the paper notes that an L1 access is
 * relatively more expensive than an (interleaved, pipelined) LLC bank
 * access and that LLC spinning shifts energy into the LLC and network.
 */

#ifndef CBSIM_ENERGY_ENERGY_MODEL_HH
#define CBSIM_ENERGY_ENERGY_MODEL_HH

#include <string>

#include "system/run_result.hh"

namespace cbsim {

/** Per-event dynamic energies, in nanojoules. */
struct EnergyParams
{
    double l1Access = 0.025;   ///< 32 KB 4-way L1, read/write
    double llcAccess = 0.020;  ///< 256 KB bank, tag+data
    double cbDirAccess = 0.001; ///< 4-entry callback directory
    double flitHop = 0.012;    ///< one flit crossing one router+link
    double memAccess = 1.6;    ///< off-chip access (not in Fig. 22)

    // Core-activity energies for the §2.1 pause study (per cycle).
    double coreActive = 0.050; ///< core busy or actively spinning
    double corePaused = 0.005; ///< core in a low-power wait state
};

/** Energy totals per component, in nanojoules. */
struct EnergyBreakdown
{
    double l1 = 0.0;
    double llc = 0.0;
    double network = 0.0;
    double cbdir = 0.0;
    double memory = 0.0;

    /** On-chip total: the Figure 22 quantity (L1 + LLC + network). */
    double onChip() const { return l1 + llc + network + cbdir; }
    double total() const { return onChip() + memory; }

    std::string summary() const;
};

/** Convert a run's event counts into energy. */
EnergyBreakdown computeEnergy(const RunResult& r,
                              const EnergyParams& params = {});

/**
 * Core energy the paper's §2.1 pause optimization would save: a core
 * blocked on a callback (its CB bit set, no local activity) can enter a
 * low-power state until the wake-up arrives, unlike a core actively
 * spinning on a cached copy or the LLC. Returns the saving in nJ for
 * @p r if every callback-blocked cycle ran at corePaused instead of
 * coreActive. (The paper explicitly leaves demonstrating this to future
 * work; bench_all --only ablation_pause quantifies it in this model.)
 */
double pauseSavings(const RunResult& r, const EnergyParams& params = {});

} // namespace cbsim

#endif // CBSIM_ENERGY_ENERGY_MODEL_HH
