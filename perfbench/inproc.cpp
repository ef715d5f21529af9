/**
 * @file
 * In-process runner of the host-performance benchmark (README.md).
 *
 * Runs one named workload's cells serially, in passes, for a fixed host
 * time budget. Each cell makes the same calls runExperiment() and
 * runSyncMicro() make, one module at a time, so the benchmark can time
 * every layer boundary from its own code:
 *
 *   workload.build     buildWorkload() / the sync micro-program build
 *   system.construct   Chip::Chip
 *   system.load        SyncLayout::apply + Chip::setProgram
 *   sim.run            Chip::run (sim.loop_ms = RunResult::simWallMs)
 *   harness.finish     guard check + computeEnergy
 *   harness.serialize  serializeRunRow
 *   system.teardown    destroying the chip and the workload
 *
 * Every pass prints one JSON line with per-cell timings, event counts
 * and scalarFields(); run.py fingerprints and aggregates them. Traced
 * passes also keep spans in memory (written to --spans at exit) and
 * sample heap growth and rusage. Untraced and traced passes run the
 * same calls; only the span bookkeeping differs.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/json.hh"
#include "harness/result_codec.hh"
#include "harness/sweep.hh"
#include "isa/assembler.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "workload/suite.hh"

namespace cbsim::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/** One simulation of a workload, declared like a SweepJob. */
struct Cell
{
    std::string key;
    bool micro = false;
    Profile profile;
    SyncMicro syncMicro = SyncMicro::TtasLock;
    unsigned iterations = 0;
    Technique technique = Technique::Invalidation;
    unsigned cores = 64;
    SyncChoice choice = SyncChoice::scalable();

    SweepJob
    job() const
    {
        return micro ? SweepJob::forMicro(key, syncMicro, technique, cores,
                                          iterations)
                     : SweepJob::forProfile(key, profile, technique, cores,
                                            choice);
    }
};

/** bench_perf_kernel's technique mix: baseline, back-off, callbacks. */
constexpr Technique kAppTechniques[] = {
    Technique::Invalidation,
    Technique::BackOff10,
    Technique::CbAll,
    Technique::CbOne,
};

/** Fig. 20's constructs, in the order fig20_sync registers them. */
constexpr SyncMicro kMicros[] = {
    SyncMicro::TtasLock, SyncMicro::ClhLock, SyncMicro::SrBarrier,
    SyncMicro::TreeBarrier, SyncMicro::SignalWait,
};

/** Cells of bench_perf_kernel (--full: 64 cores, scale 1.0). */
std::vector<Cell>
appCells(unsigned cores, double scale, std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (const Profile& p : quickSuite()) {
        for (Technique t : kAppTechniques) {
            Cell c;
            c.key = std::string("perf/") + p.name + "/" + techniqueName(t);
            c.profile = scaled(p, scale);
            c.profile.seed ^= seed;
            c.technique = t;
            c.cores = cores;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** Cells of bench_all's fig20_sync module. */
std::vector<Cell>
syncCells(unsigned cores, unsigned iterations)
{
    std::vector<Cell> cells;
    for (SyncMicro m : kMicros) {
        for (Technique t : allTechniques) {
            Cell c;
            c.key = std::string("fig20/") + syncMicroName(m) + "/" +
                    techniqueName(t);
            c.micro = true;
            c.syncMicro = m;
            c.iterations = iterations;
            c.technique = t;
            c.cores = cores;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** Cells of bench_all's fig21_apps module (--quick: 16 cores, 0.25). */
std::vector<Cell>
fig21Cells(unsigned cores, double scale)
{
    std::vector<Cell> cells;
    for (const Profile& p : benchmarkSuite()) {
        for (Technique t : allTechniques) {
            Cell c;
            c.key = "fig21/" + p.name + "/" + techniqueName(t);
            c.profile = scaled(p, scale);
            c.technique = t;
            c.cores = cores;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/**
 * The named workload's cells. The seed is XORed into Profile::seed of
 * the apps cells only; the sync micro-programs and bench_all's sweep
 * have fixed built-in seeds. The *_smoke workloads are the self-check's
 * tiny versions (bench_perf_kernel --smoke, bench_all --smoke).
 */
bool
workloadCells(const std::string& name, std::uint64_t seed,
              std::vector<Cell>& out)
{
    if (name == "apps64")
        out = appCells(64, 1.0, seed);
    else if (name == "sync64")
        out = syncCells(64, 20);
    else if (name == "quick21")
        out = fig21Cells(16, 0.25);
    else if (name == "apps_smoke")
        out = appCells(4, 0.1, seed);
    else if (name == "sync_smoke")
        out = syncCells(4, 2);
    else
        return false;
    return true;
}

/**
 * runSyncMicro()'s workload half: the layout and per-core programs of
 * one sync micro-benchmark (work_between 2500, as Fig. 20 uses).
 * run.py's self-check compares this against bench_all's fig20 cells.
 */
WorkloadBuild
buildMicro(const Cell& c, SyncFlavor flavor)
{
    constexpr std::uint64_t work_between = 2500;
    const unsigned cores = c.cores;
    const SyncMicro micro = c.syncMicro;
    WorkloadBuild w;
    auto& layout = w.layout;

    const bool is_lock =
        micro == SyncMicro::TtasLock || micro == SyncMicro::ClhLock;
    if (is_lock) {
        const LockAlgo algo = micro == SyncMicro::TtasLock
                                  ? LockAlgo::TestAndTestAndSet
                                  : LockAlgo::Clh;
        w.locks.push_back(makeLock(layout, algo, cores));
        const Addr guard = layout.allocLine();
        layout.init(guard, 0);
        w.guardWords.push_back(guard);
        w.expectedGuardCounts.push_back(
            static_cast<std::uint64_t>(cores) * c.iterations);
    } else if (micro == SyncMicro::SrBarrier) {
        w.barrier = makeSrBarrier(layout, cores, LockAlgo::TestAndTestAndSet);
    } else if (micro == SyncMicro::TreeBarrier) {
        w.barrier = makeTreeBarrier(layout, cores);
    } else {
        for (unsigned p = 0; p < (cores + 1) / 2; ++p)
            w.signals.push_back(makeSignal(layout));
    }

    for (CoreId t = 0; t < cores; ++t) {
        Rng rng(0xABCDEFULL ^ (t * 0x9e3779b97f4a7c15ULL));
        Assembler a;
        a.workImm(rng.below(64));
        for (unsigned i = 0; i < c.iterations; ++i) {
            const std::uint64_t work =
                micro == SyncMicro::SignalWait && t % 2 == 0
                    ? work_between * 6
                    : work_between;
            a.workImm(rng.jitter(std::max<std::uint64_t>(1, work), 0.5));
            if (is_lock) {
                emitAcquire(a, w.locks[0], flavor, t);
                a.workImm(50);
                a.movImm(0, w.guardWords[0]);
                a.ld(1, 0);
                a.addImm(1, 1, 1);
                a.st(1, 0);
                emitRelease(a, w.locks[0], flavor, t);
            } else if (micro == SyncMicro::SrBarrier ||
                       micro == SyncMicro::TreeBarrier) {
                emitBarrier(a, w.barrier, flavor, t);
            } else if (t % 2 == 0) {
                emitSignal(a, w.signals[t / 2], flavor);
            } else {
                emitWait(a, w.signals[t / 2], flavor);
            }
        }
        a.done();
        w.programs.push_back(a.assemble());
    }
    return w;
}

/** A timed interval at one layer boundary (traced passes only). */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    const char* name = "";
    int cell = -1; ///< index in the workload's cell list; -1 = none
    unsigned pass = 0;
    double startUs = 0.0; ///< since the runner started
    double endUs = 0.0;
};

/** In-memory span store; written once, at exit. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    bool on = false; ///< record spans for the current pass
    unsigned pass = 0;

    /** Record [start, end) under @p parent; returns the new span's id. */
    std::uint64_t
    add(const char* name, std::uint64_t parent, int cell,
        Clock::time_point start, Clock::time_point end)
    {
        if (!on)
            return 0;
        Span s;
        s.id = spans_.size() + 1;
        s.parent = parent;
        s.name = name;
        s.cell = cell;
        s.pass = pass;
        s.startUs = us(start);
        s.endUs = us(end);
        spans_.push_back(s);
        return s.id;
    }

    /** Set the end of span @p id, added before its end was known. */
    void
    close(std::uint64_t id, Clock::time_point end)
    {
        if (id)
            spans_[id - 1].endUs = us(end);
    }

    void
    write(std::ostream& os) const
    {
        JsonWriter w(os);
        w.beginObject();
        w.key("spans");
        w.beginArray();
        for (const Span& s : spans_) {
            w.beginObject();
            w.field("id", s.id);
            w.field("parent", s.parent);
            w.field("name", s.name);
            w.field("cell", static_cast<std::int64_t>(s.cell));
            w.field("pass", s.pass);
            w.field("start_us", s.startUs);
            w.field("end_us", s.endUs);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

  private:
    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Heap bytes in use (small-block arenas plus mmapped chunks). */
double
heapBytes()
{
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/** Host timings and outputs of one cell. */
struct CellRecord
{
    bool ok = false;
    std::string error;
    double buildMs = 0, constructMs = 0, loadMs = 0, runMs = 0, loopMs = 0,
           finishMs = 0, serializeMs = 0, cellMs = 0;
    double constructHeapMb = 0; ///< traced passes only
    std::uint64_t serializeBytes = 0;
    std::uint64_t staticInstructions = 0;
    RunResult run;
};

CellRecord
runCell(const Cell& c, int index, Tracer& tr, std::uint64_t parent)
{
    CellRecord rec;
    const auto t0 = Clock::now();
    const std::uint64_t cell_span = tr.add("cell", parent, index, t0, t0);
    try {
        const SyncFlavor flavor = syncFlavorFor(c.technique);
        std::optional<WorkloadBuild> w;
        w.emplace(c.micro ? buildMicro(c, flavor)
                          : buildWorkload(c.profile, c.cores, flavor,
                                          c.choice.lock, c.choice.barrier));
        const auto t1 = Clock::now();
        tr.add("workload.build", cell_span, index, t0, t1);
        for (const Program& p : w->programs)
            rec.staticInstructions += p.size();

        ChipConfig cfg = ChipConfig::forTechnique(c.technique, c.cores);
        cfg.cbEntriesPerBank = 4;
        const double heap0 = tr.on ? heapBytes() : 0.0;
        std::optional<Chip> chip;
        chip.emplace(cfg);
        const auto t2 = Clock::now();
        if (tr.on)
            rec.constructHeapMb = (heapBytes() - heap0) / (1024.0 * 1024.0);
        tr.add("system.construct", cell_span, index, t1, t2);

        w->layout.apply(chip->dataStore());
        for (CoreId t = 0; t < c.cores; ++t)
            chip->setProgram(t, w->programs[t]);
        const auto t3 = Clock::now();
        tr.add("system.load", cell_span, index, t2, t3);

        ExperimentResult res;
        res.run = chip->run();
        const auto t4 = Clock::now();
        tr.add("sim.run", cell_span, index, t3, t4);

        const bool check =
            c.micro ? (c.syncMicro == SyncMicro::TtasLock ||
                       c.syncMicro == SyncMicro::ClhLock)
                    : (c.profile.lockedSharedData &&
                       c.profile.lockAcqPerPhase > 0);
        if (check) {
            for (std::size_t l = 0; l < w->guardWords.size(); ++l) {
                const Word actual = chip->dataStore().read(w->guardWords[l]);
                if (actual != w->expectedGuardCounts[l])
                    fatal("mutual-exclusion violation on lock ", l,
                          ": guard=", actual,
                          " expected=", w->expectedGuardCounts[l]);
            }
        }
        res.energy = computeEnergy(res.run);
        const auto t5 = Clock::now();
        tr.add("harness.finish", cell_span, index, t4, t5);

        JobOutcome out;
        out.ok = true;
        out.status = JobStatus::Ok;
        out.attempts = 1;
        out.result = std::move(res);
        rec.serializeBytes = serializeRunRow(c.job(), out).size();
        const auto t6 = Clock::now();
        tr.add("harness.serialize", cell_span, index, t5, t6);

        chip.reset();
        w.reset();
        const auto t7 = Clock::now();
        tr.add("system.teardown", cell_span, index, t6, t7);

        rec.ok = true;
        rec.run = std::move(out.result.run);
        rec.buildMs = msBetween(t0, t1);
        rec.constructMs = msBetween(t1, t2);
        rec.loadMs = msBetween(t2, t3);
        rec.runMs = msBetween(t3, t4);
        rec.loopMs = rec.run.simWallMs;
        rec.finishMs = msBetween(t4, t5);
        rec.serializeMs = msBetween(t5, t6);
    } catch (const std::exception& e) {
        rec.error = e.what();
    }
    const auto tend = Clock::now();
    rec.cellMs = msBetween(t0, tend);
    tr.close(cell_span, tend);
    return rec;
}

double
seconds(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
}

/** One pass over every cell of the workload, printed as a JSON line. */
void
runPass(const std::string& workload, std::uint64_t seed, unsigned pass,
        Tracer& tr)
{
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    tr.pass = pass;
    const auto p0 = Clock::now();
    const std::uint64_t pass_span = tr.add("pass", 0, -1, p0, p0);

    std::vector<Cell> cells;
    workloadCells(workload, seed, cells);
    const auto p1 = Clock::now();
    tr.add("harness.registration", pass_span, -1, p0, p1);

    const std::uint64_t sweep_span =
        tr.add("harness.sweep", pass_span, -1, p1, p1);
    std::vector<CellRecord> recs;
    recs.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        recs.push_back(runCell(cells[i], static_cast<int>(i), tr,
                               sweep_span));
    const auto p2 = Clock::now();
    tr.close(sweep_span, p2);

    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("pass", pass);
        w.field("traced", tr.on);
        w.field("registration_ms", msBetween(p0, p1));
        w.field("sweep_ms", msBetween(p1, p2));
        w.key("cells");
        w.beginArray();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellRecord& r = recs[i];
            w.beginObject();
            w.field("key", cells[i].key);
            w.field("ok", r.ok);
            if (!r.ok)
                w.field("error", r.error);
            w.field("cell_ms", r.cellMs);
            w.field("build_ms", r.buildMs);
            w.field("construct_ms", r.constructMs);
            w.field("load_ms", r.loadMs);
            w.field("run_ms", r.runMs);
            w.field("loop_ms", r.loopMs);
            w.field("finish_ms", r.finishMs);
            w.field("serialize_ms", r.serializeMs);
            w.field("construct_heap_mb", r.constructHeapMb);
            w.field("serialize_bytes", r.serializeBytes);
            w.field("static_instructions", r.staticInstructions);
            w.field("events", r.run.events);
            std::uint64_t sync_ops = 0;
            for (const auto& k : r.run.sync)
                sync_ops += k.completions;
            w.field("sync_ops", sync_ops);
            w.key("stats");
            w.beginArray();
            for (const auto& [name, value] : r.run.scalarFields()) {
                w.beginArray();
                w.value(name);
                w.value(value);
                w.endArray();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
        const auto p3 = Clock::now();
        w.field("publish_ms", msBetween(p2, p3));
        tr.add("harness.publish", pass_span, -1, p2, p3);
        w.field("wall_ms", msBetween(p0, p3));
        tr.close(pass_span, p3);
        rusage ru1{};
        getrusage(RUSAGE_SELF, &ru1);
        w.field("user_s", seconds(ru1.ru_utime) - seconds(ru0.ru_utime));
        w.field("sys_s", seconds(ru1.ru_stime) - seconds(ru0.ru_stime));
        w.field("minor_faults",
                static_cast<std::int64_t>(ru1.ru_minflt - ru0.ru_minflt));
        w.field("invol_ctx_switches",
                static_cast<std::int64_t>(ru1.ru_nivcsw - ru0.ru_nivcsw));
        w.endObject();
    }
    // One record per line: JsonWriter indents, and its strings carry
    // no raw newlines, so dropping them keeps the JSON intact.
    std::string line = os.str();
    std::erase(line, '\n');
    std::cout << line << std::endl;
}

void
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload W --seed N --seconds S [--trace 0|1]"
                 " [--spans FILE]\n"
                 "workloads: apps64 sync64 quick21 apps_smoke sync_smoke\n";
}

int
runnerMain(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double budget_s = 10.0;
    bool trace = false;
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        try {
            if (a == "--workload" && has_value)
                workload = argv[++i];
            else if (a == "--seed" && has_value)
                seed = std::stoull(argv[++i]);
            else if (a == "--seconds" && has_value)
                budget_s = std::stod(argv[++i]);
            else if (a == "--trace" && has_value)
                trace = std::string(argv[++i]) == "1";
            else if (a == "--spans" && has_value)
                spans_path = argv[++i];
            else {
                usage(argv[0]);
                return 2;
            }
        } catch (const std::exception&) {
            std::cerr << "bad value for " << a << "\n";
            return 2;
        }
    }
    std::vector<Cell> probe;
    if (!workloadCells(workload, seed, probe)) {
        usage(argv[0]);
        return 2;
    }

    // Passes run until the budget is spent; a trace run alternates
    // untraced and traced passes so trace.overhead_ratio compares
    // passes made under the same host conditions.
    const auto start = Clock::now();
    Tracer tr(start);
    const unsigned needed = trace ? 2 : 1;
    unsigned pass = 0;
    double longest_s = 0.0;
    for (;;) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (pass >= needed && elapsed + longest_s > budget_s)
            break;
        tr.on = trace && pass % 2 == 1;
        const auto p0 = Clock::now();
        runPass(workload, seed, pass, tr);
        longest_s = std::max(
            longest_s,
            std::chrono::duration<double>(Clock::now() - p0).count());
        ++pass;
    }

    if (!spans_path.empty()) {
        std::ofstream f(spans_path, std::ios::trunc);
        tr.write(f);
        f << "\n";
        if (!f) {
            std::cerr << "cannot write " << spans_path << "\n";
            return 1;
        }
    }
    return 0;
}

} // namespace
} // namespace cbsim::perfbench

int
main(int argc, char** argv)
{
    return cbsim::perfbench::runnerMain(argc, argv);
}
