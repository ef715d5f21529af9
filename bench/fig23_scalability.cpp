/**
 * @file
 * Figure 23 reproduction — can callbacks make up for non-scalable
 * synchronization? TreeSR barrier fixed, lock implementation varied
 * between T&T&S (naive) and CLH (scalable). Its view (report/views.cc)
 * shows the geometric mean of total execution time and network traffic
 * over all benchmarks for Invalidation, BackOff-10, CB-All, and CB-One.
 *
 * Paper result: scalable locks matter for Invalidation (in time) but
 * NOT for callbacks — naive sync with callbacks is as good as scalable
 * sync with callbacks.
 */

#include "bench_common.hh"

namespace cbsim::bench {
namespace {

const Technique kTechniques[] = {
    Technique::Invalidation, Technique::BackOff10, Technique::CbAll,
    Technique::CbOne,
};

std::string
key(const std::string& bench_name, Technique t, bool naive)
{
    return "fig23/" + bench_name + "/" + techniqueName(t) +
           (naive ? "/T&T&S" : "/CLH");
}

void
registerCells()
{
    for (const auto& p : figSuite()) {
        for (Technique t : kTechniques) {
            for (bool naive : {false, true}) {
                SyncChoice choice;
                choice.lock = naive ? LockAlgo::TestAndTestAndSet
                                    : LockAlgo::Clh;
                choice.barrier = BarrierAlgo::TreeSenseReversing;
                registerJob(SweepJob::forProfile(
                    key(p.name, t, naive), scaled(p, mode().scale), t,
                    mode().cores, choice));
            }
        }
    }
}

const BenchRegistrar reg({23, "fig23_scalability",
                          "Fig. 23 — naive (T&T&S) vs scalable (CLH) "
                          "locks",
                          registerCells});

} // namespace
} // namespace cbsim::bench
