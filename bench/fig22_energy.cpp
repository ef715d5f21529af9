/**
 * @file
 * Figure 22 reproduction — energy consumption (L1 / LLC / network
 * breakdown) for all 19 benchmarks, normalized to Invalidation (view).
 * The paper's qualitative story: Invalidation spins in the (relatively
 * expensive) L1; back-off shifts energy into LLC + network; callbacks
 * minimize all three. Quoted numbers: callbacks ~40% below Invalidation
 * and ~5% below BackOff-10 overall.
 */

#include "bench_common.hh"

namespace cbsim::bench {
namespace {

std::string
key(const std::string& bench_name, Technique t)
{
    return "fig22/" + bench_name + "/" + techniqueName(t);
}

void
registerCells()
{
    for (const auto& p : figSuite()) {
        for (Technique t : allTechniques) {
            registerJob(SweepJob::forProfile(
                key(p.name, t), scaled(p, mode().scale), t,
                mode().cores, SyncChoice::scalable()));
        }
    }
}

const BenchRegistrar reg({22, "fig22_energy",
                          "Fig. 22 — L1/LLC/network energy breakdown",
                          registerCells});

} // namespace
} // namespace cbsim::bench
