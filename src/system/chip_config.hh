/**
 * @file
 * Whole-chip configuration (paper Table 2 defaults) and the evaluated
 * technique enumeration (paper §5.2).
 */

#ifndef CBSIM_SYSTEM_CHIP_CONFIG_HH
#define CBSIM_SYSTEM_CHIP_CONFIG_HH

#include <string>

#include "coherence/backoff/backoff.hh"
#include "coherence/mesi/mesi_llc.hh"
#include "debug/debug_config.hh"
#include "mem/cache_array.hh"
#include "noc/mesh.hh"

namespace cbsim {

/** Which coherence protocol the chip runs. */
enum class ProtocolKind : std::uint8_t
{
    Mesi, ///< invalidation-based directory MESI ("Invalidation")
    Vips, ///< self-invalidation/self-downgrade (VIPS-M-like)
};

/**
 * The seven configurations of the paper's evaluation (§5.2): the MESI
 * baseline, four exponential back-off variants of the self-invalidation
 * protocol, and the two callback flavours.
 */
enum class Technique : std::uint8_t
{
    Invalidation,
    BackOff0,
    BackOff5,
    BackOff10,
    BackOff15,
    CbAll,
    CbOne,
    NumTechniques
};

const char* techniqueName(Technique t);

/** All techniques, in the order the paper's figures list them. */
inline constexpr Technique allTechniques[] = {
    Technique::Invalidation, Technique::BackOff0,  Technique::BackOff5,
    Technique::BackOff10,    Technique::BackOff15, Technique::CbAll,
    Technique::CbOne,
};

/** Full system parameters (Table 2). */
struct ChipConfig
{
    unsigned numCores = 64;

    NocConfig noc{};                           ///< 8x8 mesh, 16 B flits
    CacheGeometry l1{32 * 1024, 4, 64};        ///< 32 KB, 4-way
    CacheGeometry llcBank{256 * 1024, 16, 64}; ///< 256 KB/bank, 16-way
    LlcTiming llc{};                           ///< tag 6, tag+data 12
    Tick l1Latency = 1;
    Tick memLatency = 160;

    unsigned cbEntriesPerBank = 4; ///< callback directory size (Table 2)
    Tick cbDirLatency = 1;

    ProtocolKind protocol = ProtocolKind::Vips;
    BackoffConfig backoff = BackoffConfig::off();

    /** Deadlock/livelock guard for EventQueue::run. */
    Tick maxTicks = 4'000'000'000ULL;

    /**
     * Robustness settings (watchdog, invariant checker, fault
     * injection). Defaults to the resolved process/thread configuration
     * at the moment the ChipConfig is constructed (see debug_config.hh).
     */
    DebugConfig debug = DebugConfig::current();

    /**
     * Build the configuration for one of the paper's techniques with a
     * square mesh sized for @p cores (must be a perfect square <= 64).
     */
    static ChipConfig forTechnique(Technique t, unsigned cores = 64);

    /** Validate internal consistency; fatal on error. */
    void validate() const;
};

} // namespace cbsim

#endif // CBSIM_SYSTEM_CHIP_CONFIG_HH
