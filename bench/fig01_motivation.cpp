/**
 * @file
 * Figure 1 reproduction — motivation: explicit invalidation vs LLC
 * spinning with exponential back-off (0/5/10/15 exponentiations), for
 * spin-waiting in a CLH queue lock and a tree sense-reversal barrier.
 * Its view (report/views.cc) normalizes LLC accesses and latency to the
 * largest value per sync algorithm, like the paper's two panels.
 */

#include "bench_common.hh"

namespace cbsim::bench {
namespace {

const Technique kTechniques[] = {
    Technique::Invalidation, Technique::BackOff0, Technique::BackOff5,
    Technique::BackOff10, Technique::BackOff15,
};

const SyncMicro kMicros[] = {SyncMicro::ClhLock, SyncMicro::TreeBarrier};

std::string
key(SyncMicro m, Technique t)
{
    return std::string("fig01/") + syncMicroName(m) + "/" +
           techniqueName(t);
}

void
registerCells()
{
    for (SyncMicro m : kMicros) {
        for (Technique t : kTechniques) {
            registerJob(SweepJob::forMicro(key(m, t), m, t,
                                           mode().cores,
                                           mode().microIters));
        }
    }
}

const BenchRegistrar reg({10, "fig01_motivation",
                          "Fig. 1 — invalidation vs back-off: LLC "
                          "accesses / latency trade-off",
                          registerCells});

} // namespace
} // namespace cbsim::bench
