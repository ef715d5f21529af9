/**
 * @file
 * Ablation — pause-while-waiting (paper §2.1): "a further important
 * benefit of a callback is that a core can easily go into a
 * power-saving mode while waiting"; the paper leaves demonstrating this
 * to future work. This bench quantifies it in our model: a core blocked
 * on a callback read is architecturally idle (no retries, no local
 * spinning — the wake-up arrives as a response), so its blocked cycles
 * can run at a low-power rate. Spinning techniques have no comparable
 * window: MESI cores re-check their L1 and back-off cores must wake to
 * retry.
 *
 * Its view shows per technique: total core stall cycles, the pausable
 * (callback-blocked) fraction, and the resulting core-energy saving.
 */

#include "bench_common.hh"

namespace cbsim::bench {
namespace {

std::string
key(const std::string& bench_name, Technique t)
{
    return "pause/" + bench_name + "/" + techniqueName(t);
}

const Technique kTechniques[] = {
    Technique::Invalidation,
    Technique::BackOff10,
    Technique::CbAll,
    Technique::CbOne,
};

void
registerCells()
{
    for (const auto& p : quickSuite()) {
        for (Technique t : kTechniques) {
            registerJob(SweepJob::forProfile(
                key(p.name, t), scaled(p, mode().scale), t,
                mode().cores, SyncChoice::scalable()));
        }
    }
}

const BenchRegistrar reg({32, "ablation_pause",
                          "§2.1 — pause-while-waiting core-energy "
                          "saving",
                          registerCells});

} // namespace
} // namespace cbsim::bench
