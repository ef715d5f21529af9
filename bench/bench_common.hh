/**
 * @file
 * Shared plumbing for the figure-reproduction benches.
 *
 * Each bench source file is a *module*: it registers its simulation
 * cells as declarative SweepJobs and provides a table printer. The
 * shared benchMain (bench_main.cc) parses the command line, runs each
 * distinct simulation once across a SweepRunner worker pool (--jobs N,
 * default: all hardware threads) — cells of any module whose jobs are
 * the same run (sameRun) share its one outcome — writes one versioned
 * JSON artifact per module to bench/results/ (schema: docs/RESULTS.md),
 * with every cell's row under its own key, and then prints the
 * paper-shaped tables. Runs are bit-identical regardless of --jobs.
 *
 * Every binary accepts --quick (16 cores, scaled-down workloads) and
 * --smoke (4 cores, tiny workloads, reduced suite — the ctest tier-2
 * target); the default configuration is the paper's 64-core system.
 * bench_all links every module and regenerates the whole paper.
 */

#ifndef CBSIM_BENCH_BENCH_COMMON_HH
#define CBSIM_BENCH_BENCH_COMMON_HH

#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_sink.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "workload/suite.hh"

namespace cbsim::bench {

/** Global bench sizing and driver options, set by benchMain. */
struct BenchMode
{
    unsigned cores = 64;
    double scale = 1.0;
    unsigned microIters = 20;

    unsigned jobs = 0; ///< sweep worker threads; 0 = hardware threads
    bool smoke = false;
    bool writeJson = true;
    bool profile = false; ///< per-module host-perf summary to stderr
    std::string outDir = "bench/results";

    // Crash-safe sweep options (docs/ROBUSTNESS.md §Crash-safe sweeps).
    bool isolate = false;  ///< fork each job into a child (--isolate)
    bool resume = false;   ///< replay completed cells from the journal
    unsigned retries = 0;  ///< extra attempts for failed cells
    std::string quarantineDir; ///< repro bundles; "" = <outDir>/../quarantine
};

BenchMode& mode();

/**
 * The application suite the full-size figures sweep: all 19 benchmarks
 * normally, the reduced quick suite under --smoke.
 */
const std::vector<Profile>& figSuite();

/** One bench binary's worth of cells: registration + table printing. */
struct BenchModule
{
    int order = 0;     ///< presentation order across bench_all
    std::string name;  ///< artifact stem, e.g. "fig20_sync"
    std::string title; ///< one-line description (--list)
    std::function<void()> registerCells;
    std::function<void()> print;
};

/** Self-registration hook; define one per module at namespace scope. */
struct BenchRegistrar
{
    explicit BenchRegistrar(BenchModule m);
};

/** Register one simulation cell of the current module. */
void registerJob(SweepJob job);

/** Custom cell: configuration is opaque, only the key is serialized. */
void registerCell(const std::string& key,
                  std::function<ExperimentResult()> fn);

/** Result of a finished cell (the outcome of the run it shares);
 * fatal if @p key was never registered. */
const ExperimentResult& result(const std::string& key);

/** Mean sync latency over the kinds a micro-bench exercises. */
inline double
syncLatency(const RunResult& r)
{
    double total = 0;
    std::uint64_t count = 0;
    for (const auto& k : r.sync) {
        total += static_cast<double>(k.totalLatency);
        count += k.completions;
    }
    return count ? total / static_cast<double>(count) : 0.0;
}

/** Shared driver: parse args, run the sweep, emit JSON, print tables. */
int benchMain(int argc, char** argv);

} // namespace cbsim::bench

#endif // CBSIM_BENCH_BENCH_COMMON_HH
