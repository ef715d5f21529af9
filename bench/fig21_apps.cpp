/**
 * @file
 * Figure 21 reproduction — execution time and network traffic for all
 * 19 benchmarks under scalable synchronization (CLH + TreeSR barrier),
 * all seven configurations; its view normalizes them to Invalidation,
 * with the geometric mean the paper quotes (callbacks ~11% faster and
 * ~27% less traffic than Invalidation; ~5% faster and ~15% less traffic
 * than BackOff-10).
 */

#include "bench_common.hh"

namespace cbsim::bench {
namespace {

std::string
key(const std::string& bench_name, Technique t)
{
    return "fig21/" + bench_name + "/" + techniqueName(t);
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

const BenchRegistrar reg({21, "fig21_apps",
                          "Fig. 21 — exec time + network traffic, 19 "
                          "benchmarks, 7 configs",
                          registerCells});

} // namespace
} // namespace cbsim::bench
