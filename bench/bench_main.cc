/**
 * @file
 * Shared driver for every bench binary (and bench_all, which links all
 * modules). Collects the registered modules' SweepJobs, maps each cell
 * to the first earlier cell with the same run identity (sameRun), runs
 * each distinct simulation once on a SweepRunner worker pool, writes
 * one JSON artifact per module (every cell's row under its own key),
 * and prints each module's paper view (report/views.cc) of its artifact
 * text in module order, so --no-json still prints the tables.
 */

#include "bench_common.hh"
#include "cli.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string_view>

#include "debug/debug_config.hh"
#include "harness/journal.hh"
#include "harness/json.hh"
#include "harness/result_codec.hh"
#include "harness/table.hh"
#include "report/json_value.hh"
#include "report/report.hh"
#include "sim/log.hh"

namespace cbsim::bench {

namespace {

std::vector<BenchModule>&
modules()
{
    static std::vector<BenchModule> m;
    return m;
}

/** (module name, job) in registration order. */
std::vector<std::pair<std::string, SweepJob>>&
pendingJobs()
{
    static std::vector<std::pair<std::string, SweepJob>> jobs;
    return jobs;
}

std::string&
currentModule()
{
    static std::string name;
    return name;
}

void
usage(const char* argv0)
{
    std::cout
        << "usage: " << argv0 << " [options]\n"
        << "  --jobs N      worker threads for the sweep (default: all "
           "hardware threads);\n"
        << "                results are bit-identical regardless of N\n"
        << "  --quick       16 cores, scaled-down workloads (smoke runs)\n"
        << "  --smoke       4 cores, tiny workloads, reduced suite "
           "(ctest tier-2)\n"
        << "  --out-dir D   JSON artifact directory (default: "
           "bench/results)\n"
        << "  --no-json     skip writing JSON artifacts\n"
        << "  --max-failures N  stop claiming new jobs after N failures "
           "(default: run all)\n"
        << "  --job-timeout-s S  per-job wall-clock budget in seconds; "
           "timed-out jobs\n"
        << "                become failed rows (default: off)\n"
        << "  --check-invariants  run the protocol invariant checker in "
           "every job\n"
        << "                (docs/ROBUSTNESS.md; panics on violation)\n"
        << "  --profile     print per-module wall time and events/sec "
           "to stderr\n"
        << "                (host-dependent; never written into the "
           "JSON artifacts)\n"
        << "  --isolate     fork each job into a child process; a "
           "crashing cell becomes\n"
        << "                a 'crashed' row instead of killing the "
           "sweep (docs/ROBUSTNESS.md)\n"
        << "  --resume      replay completed cells from the journal of "
           "an interrupted\n"
        << "                sweep; the final artifact is byte-identical "
           "to an uninterrupted run\n"
        << "  --retries N   re-run failed/timed-out/crashed cells up to "
           "N extra times\n"
        << "                with bounded deterministic backoff "
           "(default: 0)\n"
        << "  --quarantine-dir D  repro bundles for cells that fail "
           "every attempt\n"
        << "                (default: <out-dir>/../quarantine)\n"
        << "  --only-key K  run only the cell with this exact key "
           "(repeatable); repro\n"
        << "                mode: no artifacts, no tables — used by "
           "quarantine bundles\n"
        << "  --only NAME   run only the named module (repeatable; "
           "bench_all)\n"
        << "  --list        list the linked modules and exit\n"
        << "  --help        this text\n";
}

} // namespace

BenchMode&
mode()
{
    static BenchMode m;
    return m;
}

const std::vector<Profile>&
figSuite()
{
    static const std::vector<Profile> quick = quickSuite();
    return mode().smoke ? quick : benchmarkSuite();
}

BenchRegistrar::BenchRegistrar(BenchModule m)
{
    modules().push_back(std::move(m));
}

void
registerJob(SweepJob job)
{
    if (currentModule().empty())
        fatal("registerJob outside a module's registerCells");
    pendingJobs().emplace_back(currentModule(), std::move(job));
}

void
registerCell(const std::string& key, std::function<ExperimentResult()> fn)
{
    registerJob(SweepJob::custom(key, std::move(fn)));
}

/** Parse a --job-timeout-s value: a finite, non-negative decimal
 * number (strtod alone would also take "inf", "nan" and hex). */
bool
parseSeconds(const std::string& s, double& out)
{
    if (s.empty() ||
        s.find_first_not_of("0123456789.eE+-") != std::string::npos)
        return false;
    char* end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size() && std::isfinite(out) &&
           out >= 0.0;
}

int
benchMain(int argc, char** argv)
{
    bool list_only = false;
    bool check_invariants = false;
    unsigned max_failures = 0;
    double job_timeout_s = 0.0;
    std::vector<std::string> only;
    std::vector<std::string> only_keys;

    // Flags that take a value, as "--flag VALUE" or "--flag=VALUE".
    constexpr std::array<std::string_view, 8> valued = {
        "--jobs",    "--out-dir",        "--max-failures", "--job-timeout-s",
        "--retries", "--quarantine-dir", "--only-key",     "--only"};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string a = arg.substr(0, eq);
        const bool takes_value =
            std::find(valued.begin(), valued.end(), a) != valued.end();
        std::string v;
        if (eq != std::string::npos && takes_value) {
            v = arg.substr(eq + 1);
        } else if (eq != std::string::npos) {
            std::cerr << "unknown option: " << arg << "\n";
            usage(argv[0]);
            return 2;
        } else if (takes_value) {
            if (i + 1 == argc) {
                std::cerr << a << ": missing value\n";
                return 2;
            }
            v = argv[++i];
        }

        if (a == "--quick") {
            mode().cores = 16;
            mode().scale = 0.25;
            mode().microIters = 6;
        } else if (a == "--smoke") {
            mode().smoke = true;
            mode().cores = 4;
            mode().scale = 0.1;
            mode().microIters = 2;
        } else if (a == "--jobs") {
            if (!parseUnsignedFlag(a, v, mode().jobs))
                return 2;
        } else if (a == "--out-dir") {
            mode().outDir = v;
        } else if (a == "--no-json") {
            mode().writeJson = false;
        } else if (a == "--max-failures") {
            if (!parseUnsignedFlag(a, v, max_failures))
                return 2;
        } else if (a == "--job-timeout-s") {
            if (!parseSeconds(v, job_timeout_s)) {
                std::cerr << a << ": not a duration: " << v << "\n";
                return 2;
            }
        } else if (a == "--check-invariants") {
            check_invariants = true;
        } else if (a == "--profile") {
            mode().profile = true;
        } else if (a == "--isolate") {
            mode().isolate = true;
        } else if (a == "--resume") {
            mode().resume = true;
        } else if (a == "--retries") {
            if (!parseUnsignedFlag(a, v, mode().retries))
                return 2;
        } else if (a == "--quarantine-dir") {
            mode().quarantineDir = v;
        } else if (a == "--only-key") {
            only_keys.push_back(v);
        } else if (a == "--only") {
            only.push_back(v);
        } else if (a == "--list") {
            list_only = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(argv[0]);
            return 2;
        }
    }

    // Read the debug environment (CBSIM_OBS_EPOCH, ...) now, so a bad
    // value stops the sweep like a bad flag does, before any cell runs.
    try {
        DebugConfig::processDefaults();
    } catch (const FatalError&) {
        return 2; // fatal() already named the variable on stderr
    }

    auto mods = modules();
    std::sort(mods.begin(), mods.end(),
              [](const BenchModule& a, const BenchModule& b) {
                  return a.order < b.order;
              });
    if (!only.empty()) {
        std::vector<BenchModule> selected;
        for (const auto& name : only) {
            const auto it = std::find_if(
                mods.begin(), mods.end(),
                [&](const BenchModule& m) { return m.name == name; });
            if (it == mods.end()) {
                std::cerr << "unknown module: " << name
                          << " (see --list)\n";
                return 2;
            }
            selected.push_back(*it);
        }
        mods = std::move(selected);
    }
    if (list_only) {
        for (const auto& m : mods)
            std::cout << m.name << "  —  " << m.title << "\n";
        return 0;
    }

    for (const auto& m : mods) {
        currentModule() = m.name;
        m.registerCells();
    }
    currentModule().clear();

    // --only-key repro mode (what a quarantine bundle's rerun line
    // invokes): run just the named cells, skip artifacts and tables.
    if (!only_keys.empty()) {
        auto& pending = pendingJobs();
        std::vector<std::pair<std::string, SweepJob>> kept;
        for (const auto& want : only_keys) {
            const auto it = std::find_if(
                pending.begin(), pending.end(),
                [&](const auto& p) { return p.second.key == want; });
            if (it == pending.end()) {
                std::cerr << "unknown cell key: " << want << "\n";
                return 2;
            }
            kept.push_back(*it);
        }
        pending = std::move(kept);
        mode().writeJson = false;
    }

    // Process-wide debug defaults: every chip built by this process's
    // jobs inherits these (plus the per-job label the runner installs).
    DebugConfig& dbg = DebugConfig::processDefaults();
    if (check_invariants)
        dbg.checkInvariants = true;
    if (dbg.forensicDir.empty())
        dbg.forensicDir = mode().outDir;
    // Bench artifacts always carry the contention[] attribution table
    // (schema v4). It is not free: on a 4-vCPU Xeon, a full-size
    // `--jobs 1 --only fig21_apps` sweep took 25.3 s with it and 21.5 s
    // without (about 15%). ROADMAP.md item 2 plans the cheaper shards.
    dbg.obs.attribution = true;

    // Sweep-level sizing annotations folded into every cell's journal
    // hash, so a --smoke journal can never satisfy a full-size sweep
    // even when cell keys coincide (result_codec.hh).
    const std::string sweep_meta =
        "cores=" + std::to_string(mode().cores) +
        ";scale=" + JsonWriter::number(mode().scale) +
        ";micro_iters=" + std::to_string(mode().microIters);
    const auto journal_path = [&](const std::string& module_name) {
        return mode().outDir + "/" + module_name + ".json.journal";
    };

    // The exact command a quarantined cell's repro bundle re-runs:
    // this invocation minus the flags that must not replay.
    std::string rerun_prefix = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--resume")
            continue;
        if ((a == "--retries" || a == "--only-key" ||
             a == "--max-failures") &&
            i + 1 < argc) {
            ++i;
            continue;
        }
        if (a.rfind("--retries=", 0) == 0 ||
            a.rfind("--only-key=", 0) == 0 ||
            a.rfind("--max-failures=", 0) == 0)
            continue;
        rerun_prefix += " " + a;
    }

    std::string quarantine_dir = mode().quarantineDir;
    if (quarantine_dir.empty()) {
        const std::filesystem::path out(mode().outDir);
        quarantine_dir =
            (out.has_parent_path() ? out.parent_path() / "quarantine"
                                   : std::filesystem::path("quarantine"))
                .string();
    }

    // --resume: load every module's journal; a cell whose config hash
    // matches a journaled line is decoded from that row instead of
    // re-run.
    std::map<std::string, std::string> journal_rows; // hash -> row
    if (mode().resume && mode().writeJson) {
        for (const auto& m : mods)
            for (auto& e : ResultJournal::load(journal_path(m.name)))
                journal_rows[e.cell] = std::move(e.row);
    }

    SweepRunner runner(mode().jobs);
    runner.setMaxFailures(max_failures);
    runner.setJobTimeoutS(job_timeout_s);
    runner.setIsolate(mode().isolate);
    runner.setRetries(mode().retries);
    runner.setQuarantineDir(quarantine_dir);
    runner.setRerunPrefix(rerun_prefix);

    // A cell is its config: each registered cell maps to the first
    // earlier cell with the same run identity, and only that first cell
    // is looked up in the journal or handed to the runner. Every other
    // cell's row is the same outcome written under its own key.
    const auto& pending = pendingJobs();
    std::vector<std::size_t> first_cell; // run index -> pending index
    std::map<std::string, std::size_t> run_of_key; // cell key -> run
    for (std::size_t p = 0; p < pending.size(); ++p) {
        const SweepJob& job = pending[p].second;
        std::size_t r = 0;
        while (r < first_cell.size() &&
               !sameRun(pending[first_cell[r]].second, job))
            ++r;
        if (r == first_cell.size())
            first_cell.push_back(p);
        if (!run_of_key.emplace(job.key, r).second)
            fatal("duplicate bench cell key: ", job.key);
    }
    const auto run_of = [&](std::size_t p) {
        return run_of_key.at(pending[p].second.key);
    };

    // One outcome per distinct run, in order of first registration.
    // Journaled runs are decoded here, the runner fills in the rest.
    std::vector<JobOutcome> outcomes(first_cell.size());
    std::vector<std::size_t> to_run; // runner index -> run index
    for (std::size_t r = 0; r < first_cell.size(); ++r) {
        const SweepJob& job = pending[first_cell[r]].second;
        const auto jr = journal_rows.find(jobConfigHash(
            job, ResultSink::kSchemaVersion, sweep_meta));
        if (jr != journal_rows.end()) {
            std::string parse_error;
            const JsonValue row =
                JsonValue::parse(jr->second, parse_error);
            if (parse_error.empty() &&
                row.getString("key") == job.key) {
                outcomes[r] = parseRunRow(row);
                continue;
            }
        }
        to_run.push_back(r);
        runner.add(job);
    }

    // Journals are written as runs complete, one flushed line each, so
    // a killed sweep only loses the in-flight run (--resume replays the
    // rest). A run's line goes to the journal of the module that
    // registered its first cell. Only successful runs are journaled:
    // failures are retried by the resumed run instead of replayed.
    std::map<std::string, std::unique_ptr<ResultJournal>> journals;
    if (mode().writeJson)
        for (const auto& m : mods)
            journals.emplace(m.name, std::make_unique<ResultJournal>(
                                         journal_path(m.name)));

    const std::size_t total = runner.jobCount();
    std::cout << "cbsim bench: " << total << " simulations for "
              << pending.size() << " cells on " << runner.workers()
              << " worker thread(s)";
    if (total < outcomes.size())
        std::cout << " (" << outcomes.size() - total
                  << " runs replayed from journal)";
    std::cout << "\n";

    const auto t0 = std::chrono::steady_clock::now();
    std::size_t done = 0;
    auto ran =
        runner.run([&](std::size_t i, const JobOutcome& out) {
            ++done;
            std::cout << "[" << done << "/" << total << "] "
                      << runner.job(i).key << "  "
                      << fmt(out.wallMs, 1) << " ms";
            if (!out.ok) {
                std::cout << "  " << jobStatusName(out.status);
            }
            std::cout << "\n";
            if (out.ok && !journals.empty()) {
                const SweepJob& job = runner.job(i);
                const auto it =
                    journals.find(pending[first_cell[to_run[i]]].first);
                if (it != journals.end())
                    it->second->append(
                        jobConfigHash(job, ResultSink::kSchemaVersion,
                                      sweep_meta),
                        serializeRunRow(job, out));
            }
        });
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    std::cout << "sweep finished in " << fmt(wall_s, 2) << " s\n";
    for (std::size_t i = 0; i < ran.size(); ++i)
        outcomes[to_run[i]] = std::move(ran[i]);

    std::vector<std::string> artifacts; // each module's JSON, for its view
    for (const auto& m : mods) {
        ResultSink sink(m.name);
        sink.meta("cores", std::to_string(mode().cores));
        sink.meta("scale", JsonWriter::number(mode().scale));
        sink.meta("micro_iters", std::to_string(mode().microIters));
        for (std::size_t p = 0; p < pending.size(); ++p)
            if (pending[p].first == m.name)
                sink.add(pending[p].second, outcomes[run_of(p)]);
        artifacts.push_back(sink.toJson());
        if (mode().writeJson) {
            const std::string path =
                mode().outDir + "/" + m.name + ".json";
            sink.writeFile(path);
            std::cout << "wrote " << path << " (" << sink.size()
                      << " runs)\n";
            const auto jit = journals.find(m.name);
            if (jit != journals.end() && jit->second->degraded())
                std::cerr << "warning: journal write failed for "
                          << m.name
                          << "; --resume cannot skip its cells\n";
            if (sink.allOk()) {
                // The artifact now supersedes the journal.
                ResultJournal::removeFile(journal_path(m.name));
            } else {
                std::cerr << "journal kept: " << journal_path(m.name)
                          << " (re-run with --resume to retry the "
                             "failed cells)\n";
            }
        }
    }

    if (mode().profile) {
        // Host-perf summary: stderr only, never into the JSON artifacts
        // (docs/RESULTS.md determinism contract; schema: docs/PERF.md).
        // A module line counts every cell it registered, so a shared
        // run counts under each module; the total counts each run once.
        // Replayed runs carry no host-perf numbers: both are 0.
        for (const auto& m : mods) {
            std::uint64_t events = 0;
            double wall_ms = 0.0;
            for (std::size_t p = 0; p < pending.size(); ++p) {
                if (pending[p].first != m.name)
                    continue;
                events += outcomes[run_of(p)].result.run.events;
                wall_ms += outcomes[run_of(p)].wallMs;
            }
            std::cerr << "[profile] " << m.name << ": " << events
                      << " events, " << fmt(wall_ms, 1) << " ms, "
                      << fmt(wall_ms > 0.0
                                 ? static_cast<double>(events) /
                                       (wall_ms / 1e3) / 1e6
                                 : 0.0,
                             2)
                      << " Mev/s\n";
        }
        std::uint64_t all_events = 0;
        double all_wall = 0.0;
        for (const JobOutcome& out : outcomes) {
            all_events += out.result.run.events;
            all_wall += out.wallMs;
        }
        std::cerr << "[profile] total: " << all_events << " events, "
                  << fmt(all_wall, 1) << " ms, "
                  << fmt(all_wall > 0.0
                             ? static_cast<double>(all_events) /
                                   (all_wall / 1e3) / 1e6
                             : 0.0,
                         2)
                  << " Mev/s\n";
    }

    // Repro mode runs a hand-picked subset, which no view describes.
    std::string parse_error;
    if (only_keys.empty())
        for (const std::string& text : artifacts)
            renderPaperView(JsonValue::parse(text, parse_error), std::cout);

    // One line per failed run, named by its first cell; every cell
    // sharing the run carries the same failed row.
    unsigned failures = 0;
    for (std::size_t r = 0; r < outcomes.size(); ++r) {
        if (!outcomes[r].ok) {
            ++failures;
            std::cerr << "FAILED (" << jobStatusName(outcomes[r].status)
                      << "): " << pending[first_cell[r]].second.key
                      << ": " << outcomes[r].error << "\n";
        }
    }
    if (failures) {
        std::cerr << failures << " of " << total
                  << " simulations failed\n";
        return 1;
    }
    return 0;
}

} // namespace cbsim::bench

int
main(int argc, char** argv)
{
    return cbsim::bench::benchMain(argc, argv);
}
