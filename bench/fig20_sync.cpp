/**
 * @file
 * Figure 20 reproduction — effect of callbacks on synchronization:
 * extends Figure 1 with CB-All and CB-One for all analyzed constructs
 * (T&T&S acquire, CLH acquire, SR barrier, TreeSR barrier, and the wait
 * side of signal/wait). Its view (report/views.cc) shows LLC accesses
 * and latency normalized to the highest result per construct.
 */

#include "bench_common.hh"

namespace cbsim::bench {
namespace {

const SyncMicro kMicros[] = {
    SyncMicro::TtasLock, SyncMicro::ClhLock, SyncMicro::SrBarrier,
    SyncMicro::TreeBarrier, SyncMicro::SignalWait,
};

std::string
key(SyncMicro m, Technique t)
{
    return std::string("fig20/") + syncMicroName(m) + "/" +
           techniqueName(t);
}

void
registerCells()
{
    for (SyncMicro m : kMicros) {
        for (Technique t : allTechniques) {
            registerJob(SweepJob::forMicro(key(m, t), m, t,
                                           mode().cores,
                                           mode().microIters));
        }
    }
}

const BenchRegistrar reg({20, "fig20_sync",
                          "Fig. 20 — effect of callbacks on five sync "
                          "constructs",
                          registerCells});

} // namespace
} // namespace cbsim::bench
