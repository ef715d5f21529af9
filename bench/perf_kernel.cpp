/**
 * @file
 * Host-performance benchmark of the simulation kernel.
 *
 * Runs a fig21-style workload mix (quick-suite benchmarks under the
 * MESI baseline, a back-off variant, and both callback flavours),
 * measures host wall time and executed kernel events per cell, and
 * writes a *host-perf* JSON artifact (schema: docs/PERF.md). Two
 * windows are timed per cell: the event-loop window (Chip::run's
 * dispatch loop — the kernel-throughput headline) and the full
 * experiment wall including workload build, chip construction, and
 * stats extraction (identical code on both sides of a kernel
 * comparison, so it only dilutes the ratio). This is
 * deliberately NOT a bench_main module: host timings are
 * machine-dependent and must never enter the deterministic results
 * artifacts (docs/RESULTS.md contract), so this binary has its own
 * driver and its own output file.
 *
 * Compare two artifacts (e.g. before/after a kernel change) with
 * scripts/perf_compare.py.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "sim/log.hh"
#include "workload/suite.hh"

namespace cbsim {
namespace {

/** Techniques in the measured mix: baseline, back-off, both callbacks. */
constexpr Technique perfTechniques[] = {
    Technique::Invalidation,
    Technique::BackOff10,
    Technique::CbAll,
    Technique::CbOne,
};

struct CellResult
{
    std::string key;
    std::uint64_t events = 0; ///< kernel events per run (deterministic)
    double bestWallMs = 0.0;  ///< fastest full-experiment wall, --repeat
    double bestSimMs = 0.0;   ///< fastest event-loop window, --repeat
};

struct Options
{
    unsigned cores = 16;
    double scale = 0.25;
    unsigned repeat = 3;
    std::string out = "bench/results/perf/perf_kernel.json";
    bool writeJson = true;
};

void
usage(const char* argv0)
{
    std::cout
        << "usage: " << argv0 << " [options]\n"
        << "  --full        paper-size cells (64 cores, full workloads)\n"
        << "  --smoke       4 cores, tiny workloads (CI sanity)\n"
        << "  --repeat N    runs per cell, best-of-N wall time "
           "(default: 3)\n"
        << "  --out FILE    host-perf artifact path (default: "
           "bench/results/perf/perf_kernel.json)\n"
        << "  --no-json     skip writing the artifact\n"
        << "  --help        this text\n"
        << "default sizing: 16 cores, 0.25-scale workloads\n";
}

double
eventsPerSec(std::uint64_t events, double wall_ms)
{
    return wall_ms > 0.0 ? static_cast<double>(events) / (wall_ms / 1e3)
                         : 0.0;
}

std::string
fmtMevps(double eps)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(2);
    os << eps / 1e6 << " Mev/s";
    return os.str();
}

void
writeArtifact(const Options& opt, const std::vector<CellResult>& cells)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", "cbsim-host-perf");
        // v4: v3's kernel-shard fields dropped (docs/PERF.md).
        w.field("schema_version", 4u);
        w.field("bench", "perf_kernel");
        w.key("config");
        w.beginObject();
        w.field("cores", opt.cores);
        w.field("scale", opt.scale);
        w.field("repeat", opt.repeat);
        w.endObject();
        w.key("cells");
        w.beginArray();
        std::uint64_t total_events = 0;
        double total_wall = 0.0;
        double total_sim = 0.0;
        for (const auto& c : cells) {
            total_events += c.events;
            total_wall += c.bestWallMs;
            total_sim += c.bestSimMs;
            w.beginObject();
            w.field("key", c.key);
            w.field("events", c.events);
            w.field("best_wall_ms", c.bestWallMs);
            w.field("best_sim_ms", c.bestSimMs);
            w.field("events_per_sec",
                    eventsPerSec(c.events, c.bestSimMs));
            w.endObject();
        }
        w.endArray();
        w.key("totals");
        w.beginObject();
        w.field("events", total_events);
        w.field("wall_ms", total_wall);
        w.field("sim_ms", total_sim);
        w.field("events_per_sec",
                eventsPerSec(total_events, total_sim));
        w.endObject();
        w.endObject();
    }
    const std::filesystem::path p(opt.out);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream f(p, std::ios::trunc);
    if (!f)
        fatal("perf_kernel: cannot write ", opt.out);
    f << os.str() << "\n";
    if (!f)
        fatal("perf_kernel: write failed: ", opt.out);
}

int
perfMain(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--full") {
            opt.cores = 64;
            opt.scale = 1.0;
        } else if (a == "--smoke") {
            opt.cores = 4;
            opt.scale = 0.1;
            opt.repeat = 1;
        } else if (a == "--repeat" && i + 1 < argc) {
            if (!bench::parseUnsignedFlag("--repeat", argv[++i],
                                          opt.repeat))
                return 2;
        } else if (a == "--out" && i + 1 < argc) {
            opt.out = argv[++i];
        } else if (a == "--no-json") {
            opt.writeJson = false;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "unknown option: " << a << "\n";
            usage(argv[0]);
            return 2;
        }
    }
    if (opt.repeat == 0)
        opt.repeat = 1;

    const std::vector<Profile> suite = quickSuite();
    std::vector<CellResult> cells;
    std::cout << "cbsim perf_kernel: " << suite.size() << " benchmarks x "
              << std::size(perfTechniques) << " techniques, " << opt.cores
              << " cores, scale " << opt.scale << ", best of "
              << opt.repeat << "\n";

    for (const auto& p : suite) {
        const Profile sp = scaled(p, opt.scale);
        for (const Technique t : perfTechniques) {
            CellResult cell;
            cell.key = std::string("perf/") + p.name + "/" +
                       techniqueName(t);
            for (unsigned r = 0; r < opt.repeat; ++r) {
                const auto t0 = std::chrono::steady_clock::now();
                const ExperimentResult res =
                    runExperiment(sp, t, opt.cores);
                const double wall_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                if (r == 0 || wall_ms < cell.bestWallMs)
                    cell.bestWallMs = wall_ms;
                if (r == 0 || res.run.simWallMs < cell.bestSimMs)
                    cell.bestSimMs = res.run.simWallMs;
                cell.events = res.run.events;
            }
            std::cout << "  " << cell.key << ": " << cell.events
                      << " events, "
                      << fmtMevps(
                             eventsPerSec(cell.events, cell.bestSimMs))
                      << "\n";
            cells.push_back(std::move(cell));
        }
    }

    std::uint64_t total_events = 0;
    double total_wall = 0.0;
    double total_sim = 0.0;
    for (const auto& c : cells) {
        total_events += c.events;
        total_wall += c.bestWallMs;
        total_sim += c.bestSimMs;
    }
    std::cout << "total: " << total_events << " events in "
              << static_cast<std::uint64_t>(total_sim)
              << " ms of event-loop time = "
              << fmtMevps(eventsPerSec(total_events, total_sim))
              << " (full-experiment wall "
              << static_cast<std::uint64_t>(total_wall) << " ms)\n";

    if (opt.writeJson) {
        writeArtifact(opt, cells);
        std::cout << "wrote " << opt.out << "\n";
    }
    return 0;
}

} // namespace
} // namespace cbsim

int
main(int argc, char** argv)
{
    return cbsim::perfMain(argc, argv);
}
