/**
 * @file
 * Fault-injection soak harness (ctest label "soak"): every sync
 * microbenchmark under each evaluated technique and several fault-plan
 * seeds, with the protocol invariant checker on. The workloads' guard
 * verification is built into runSyncMicro, so "the run returned" already
 * means "the run terminated with correct results"; on top of that we
 * assert that the eviction storm really provoked callback-directory
 * forced evictions, and that a faulted run is still a pure function of
 * its (config, seed) — byte-identical metrics on a rerun.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "debug/debug_config.hh"
#include "harness/experiment.hh"
#include "sim/log.hh"

namespace cbsim {
namespace {

constexpr unsigned kCores = 4; // must be a perfect square <= 64
constexpr unsigned kIters = 6;

const std::vector<SyncMicro>&
allMicros()
{
    static const std::vector<SyncMicro> m = {
        SyncMicro::TtasLock, SyncMicro::ClhLock, SyncMicro::SrBarrier,
        SyncMicro::TreeBarrier, SyncMicro::SignalWait};
    return m;
}

const std::vector<Technique>&
soakTechniques()
{
    static const std::vector<Technique> t = {
        Technique::Invalidation, Technique::BackOff10, Technique::CbOne};
    return t;
}

/**
 * The eviction-storm plan from docs/ROBUSTNESS.md: periodic forced
 * callback-directory evictions plus low-probability random ones, bounded
 * NoC delays, and perturbed self-invalidation timing.
 */
FaultPlan
stormPlan(std::uint64_t seed)
{
    FaultPlan p;
    p.seed = seed;
    p.cbEvictPeriod = 7;
    p.cbEvictChance = 0.02;
    p.nocDelayChance = 0.05;
    p.nocDelayMax = 6;
    p.selfInvlChance = 0.25;
    p.selfInvlDelayMax = 12;
    return p;
}

DebugConfig
soakDebug(const FaultPlan& plan, const std::string& label)
{
    DebugConfig d = DebugConfig::current();
    d.checkInvariants = true;
    d.checkIntervalEvents = 5000;
    d.faults = plan;
    d.label = label;
    d.forensicDir.clear(); // stderr only if something does go wrong
    return d;
}

/** Canonical text form of a run's deterministic metrics. */
std::string
fingerprint(const ExperimentResult& r)
{
    std::ostringstream os;
    for (const auto& [name, value] : r.run.scalarFields())
        os << name << '=' << value << '\n';
    return os.str();
}

TEST(FaultSoak, EveryMicroSurvivesEveryTechniqueAndSeed)
{
    std::uint64_t cbEvictions = 0;
    for (const SyncMicro micro : allMicros()) {
        for (const Technique tech : soakTechniques()) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                std::ostringstream label;
                label << "soak/" << syncMicroName(micro) << "/"
                      << techniqueName(tech) << "/s" << seed;
                DebugScope scope(
                    soakDebug(stormPlan(seed), label.str()));
                ExperimentResult r;
                ASSERT_NO_THROW(r = runSyncMicro(micro, tech, kCores,
                                                 kIters))
                    << label.str();
                EXPECT_GT(r.run.events, 0u) << label.str();
                if (tech == Technique::CbOne)
                    cbEvictions += r.run.cbdirEvictions;
            }
        }
    }
    // The storm must actually exercise the eviction-under-waiters
    // recovery path (paper Fig. 3 step 5), not just pass vacuously.
    EXPECT_GT(cbEvictions, 0u);
}

TEST(FaultSoak, FaultedRunsAreByteIdenticalPerSeed)
{
    const auto once = [] {
        DebugScope scope(soakDebug(stormPlan(2), "soak/repro"));
        return runSyncMicro(SyncMicro::ClhLock, Technique::CbOne,
                            kCores, kIters);
    };
    const ExperimentResult a = once();
    const ExperimentResult b = once();
    EXPECT_EQ(fingerprint(a), fingerprint(b));

    DebugScope scope(soakDebug(stormPlan(3), "soak/repro-alt"));
    const ExperimentResult c = runSyncMicro(
        SyncMicro::ClhLock, Technique::CbOne, kCores, kIters);
    EXPECT_NE(fingerprint(a), fingerprint(c))
        << "different fault seeds produced identical runs; the plan "
           "is probably not being applied";
}

TEST(FaultSoak, FaultFreeBaselineIsUnchangedByDebugScaffolding)
{
    // Invariant checking only observes; it must not perturb simulated
    // results (zero-cost-when-off contract).
    const auto run = [](bool checked) {
        DebugConfig d = DebugConfig::current();
        d.checkInvariants = checked;
        d.faults = FaultPlan();
        d.label = "soak/baseline";
        d.forensicDir.clear();
        DebugScope scope(d);
        return runSyncMicro(SyncMicro::SrBarrier, Technique::CbAll,
                            kCores, kIters);
    };
    EXPECT_EQ(fingerprint(run(false)), fingerprint(run(true)));
}

} // namespace
} // namespace cbsim
