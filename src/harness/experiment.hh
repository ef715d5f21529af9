/**
 * @file
 * Experiment harness: runs a workload profile under an evaluated
 * technique and returns the run's metrics; shared by the bench binaries,
 * examples, and integration tests.
 */

#ifndef CBSIM_HARNESS_EXPERIMENT_HH
#define CBSIM_HARNESS_EXPERIMENT_HH

#include "energy/energy_model.hh"
#include "sync/barriers.hh"
#include "system/chip.hh"
#include "workload/program_gen.hh"
#include "workload/suite.hh"

namespace cbsim {

/** Lock/barrier pairing (paper §5.2). */
struct SyncChoice
{
    LockAlgo lock = LockAlgo::Clh;
    BarrierAlgo barrier = BarrierAlgo::TreeSenseReversing;

    static SyncChoice
    scalable()
    {
        return {LockAlgo::Clh, BarrierAlgo::TreeSenseReversing};
    }
    static SyncChoice
    naive()
    {
        return {LockAlgo::TestAndTestAndSet, BarrierAlgo::SenseReversing};
    }

    bool operator==(const SyncChoice&) const = default;
};

/** Everything one simulation produced: what its artifact row carries. */
struct ExperimentResult
{
    RunResult run;
    EnergyBreakdown energy;
};

/**
 * Build and run @p profile under @p technique on @p cores cores.
 * Verifies the mutual-exclusion invariant (guard counters) and fails
 * fatally on violation — every bench run is therefore also a check.
 */
ExperimentResult runExperiment(const Profile& profile, Technique technique,
                               unsigned cores,
                               SyncChoice choice = SyncChoice::scalable(),
                               unsigned cb_entries_per_bank = 4);

/**
 * Run an already-loaded @p chip to completion and package the metrics.
 * When @p check_guards is set, verifies the mutual-exclusion invariant
 * (every guard word in @p w must equal its expected count) and calls
 * fatal() on violation; nothing of @p w is kept. Building block for
 * runExperiment/runSyncMicro and for custom jobs driven through the
 * SweepRunner.
 */
ExperimentResult finishExperiment(Chip& chip, const WorkloadBuild& w,
                                  bool check_guards);

/**
 * Run a micro-workload that exercises exactly one synchronization
 * construct (for Figs. 1 and 20): @p iterations of acquire/CS/release on
 * one lock, or barrier episodes, or signal/wait pairs.
 */
enum class SyncMicro : std::uint8_t
{
    TtasLock,
    ClhLock,
    SrBarrier,
    TreeBarrier,
    SignalWait,
};

const char* syncMicroName(SyncMicro m);

ExperimentResult runSyncMicro(SyncMicro micro, Technique technique,
                              unsigned cores, unsigned iterations,
                              std::uint64_t work_between = 2500,
                              unsigned cb_entries_per_bank = 4);

} // namespace cbsim

#endif // CBSIM_HARNESS_EXPERIMENT_HH
