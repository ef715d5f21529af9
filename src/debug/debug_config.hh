/**
 * @file
 * Configuration for the robustness subsystem (docs/ROBUSTNESS.md):
 * watchdog liveness detection, protocol invariant checking, and
 * deterministic fault injection.
 *
 * Defaults resolve in three layers so every entry point stays cheap and
 * deterministic:
 *  - process defaults, initialized once from the environment
 *    (CBSIM_CHECK_INVARIANTS=1 turns the invariant checker on — this is
 *    how ctest enables it for the whole suite without touching bench
 *    runs);
 *  - thread overrides, installed RAII-style by DebugScope (the sweep
 *    runner uses this to attach a per-job label and wall-clock timeout
 *    to whatever chips the job builds);
 *  - explicit per-chip settings, by assigning ChipConfig::debug.
 *
 * Everything here is off by default and none of it influences simulated
 * behaviour unless fault injection is enabled, so results artifacts
 * remain a pure function of the job list (docs/RESULTS.md contract).
 */

#ifndef CBSIM_DEBUG_DEBUG_CONFIG_HH
#define CBSIM_DEBUG_DEBUG_CONFIG_HH

#include <cstdint>
#include <string>

#include "obs/obs_config.hh"
#include "sim/types.hh"

namespace cbsim {

/**
 * Deterministic fault plan (paper §3: the callback directory is not
 * backed up, so eviction while cores are blocked must be survivable —
 * this provokes exactly those recovery paths on purpose).
 *
 * All injection decisions are drawn from per-site Rng streams seeded
 * from @c seed, inside the single-threaded event loop of one chip, so a
 * run under a fault plan is still a pure function of (config, seed):
 * identical seeds give byte-identical results.
 */
struct FaultPlan
{
    std::uint64_t seed = 0;

    /**
     * Callback-directory eviction storm: every @c cbEvictPeriod-th
     * directory operation force-evicts an entry that has live waiters
     * (victimizing them exactly as a capacity replacement would).
     * 0 = off. Combines with @c cbEvictChance (either trigger fires).
     */
    unsigned cbEvictPeriod = 0;
    double cbEvictChance = 0.0; ///< per-directory-op probability

    /** Bounded random extra delay on NoC message injection. */
    double nocDelayChance = 0.0;
    Tick nocDelayMax = 0;

    /** Bounded random perturbation of L1 self-invalidation timing. */
    double selfInvlChance = 0.0;
    Tick selfInvlDelayMax = 0;

    bool
    enabled() const
    {
        return cbEvictPeriod != 0 || cbEvictChance > 0.0 ||
               nocDelayChance > 0.0 || selfInvlChance > 0.0;
    }
};

/** Per-chip robustness settings (see file comment for default layers). */
struct DebugConfig
{
    /** Run the protocol invariant checker (panics on violation). */
    bool checkInvariants = false;

    /** Events between watchdog polls / interval invariant checks. */
    std::uint64_t checkIntervalEvents = 200'000;

    /**
     * No-progress window: trip the watchdog when this many ticks elapse
     * with zero instructions retired chip-wide. 0 = off. Long Work
     * instructions legitimately retire nothing for their whole duration,
     * so keep this well above the longest Work in the workload.
     */
    Tick noProgressWindow = 0;

    /**
     * Per-chip wall-clock budget in seconds (0 = off). Checked
     * cooperatively at watchdog polls; trips as TimeoutError. The sweep
     * runner's --job-timeout-s installs this via DebugScope.
     */
    double wallTimeoutS = 0.0;

    /**
     * Directory for forensic JSON dumps ("" = stderr only). The bench
     * driver points this at its --out-dir so dumps land next to the
     * run's results artifacts.
     */
    std::string forensicDir;

    /** Label naming this run in forensic dumps and file names. */
    std::string label = "run";

    FaultPlan faults;

    /**
     * Observability settings (epoch sampling, trace export — see
     * docs/OBSERVABILITY.md). Carried here so they resolve through the
     * same env → DebugScope → ChipConfig layering as everything else.
     */
    ObsConfig obs;

    bool
    wantsPolling() const
    {
        return checkInvariants || noProgressWindow != 0 ||
               wallTimeoutS > 0.0;
    }

    /** Mutable process-wide defaults (first use reads the environment). */
    static DebugConfig& processDefaults();

    /** Effective defaults for this thread (overrides, else process). */
    static const DebugConfig& current();
};

/**
 * RAII thread-scoped override of DebugConfig::current(). Nests; the
 * previous override (or the process defaults) is restored on
 * destruction.
 */
class DebugScope
{
  public:
    explicit DebugScope(DebugConfig cfg);
    ~DebugScope();

    DebugScope(const DebugScope&) = delete;
    DebugScope& operator=(const DebugScope&) = delete;

  private:
    const DebugConfig* saved_;
    DebugConfig cfg_;
};

} // namespace cbsim

#endif // CBSIM_DEBUG_DEBUG_CONFIG_HH
