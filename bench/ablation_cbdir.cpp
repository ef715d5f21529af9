/**
 * @file
 * Ablation — callback-directory size (paper §5.2): the paper evaluates
 * 4 entries per bank and reports that 16, 64, and 256 entries show "no
 * noticeable change". This bench sweeps the sizes (including a
 * 1-entry stress case the paper does not show) on the most
 * lock-intensive workloads.
 */

#include "bench_common.hh"

namespace cbsim::bench {
namespace {

const unsigned kSizes[] = {1, 4, 16, 64, 256};

std::string
key(const std::string& bench_name, Technique t, unsigned entries)
{
    return "cbdir/" + bench_name + "/" + techniqueName(t) + "/" +
           std::to_string(entries);
}

void
registerCells()
{
    for (const auto& p : quickSuite()) {
        for (Technique t : {Technique::CbAll, Technique::CbOne}) {
            for (unsigned s : kSizes) {
                registerJob(SweepJob::forProfile(
                    key(p.name, t, s), scaled(p, mode().scale), t,
                    mode().cores, SyncChoice::scalable(), s));
            }
        }
    }
}

const BenchRegistrar reg({30, "ablation_cbdir",
                          "§5.2 — callback-directory size sweep "
                          "(1…256 entries/bank)",
                          registerCells});

} // namespace
} // namespace cbsim::bench
