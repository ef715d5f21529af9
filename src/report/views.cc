/**
 * @file
 * The paper's views of the bench artifacts (docs/RESULTS.md §Reporting):
 * one per artifact `bench` name, holding that figure's arithmetic as
 * table specs that one routine prints, so bench_all (after a sweep) and
 * cbsim-report (from a file) show the same numbers. Rows are decoded
 * with parseRunRow and pivoted on their config fields, never on the
 * spelling of their key — except ablation_messages, whose custom rows
 * carry only a key. A cell whose run or reference run is not ok prints
 * "-", as does a geomean with an input missing; a row maximum is taken
 * over the ok cells only.
 */

#include "report/report.hh"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "energy/energy_model.hh"
#include "harness/result_codec.hh"
#include "harness/table.hh"
#include "stats/stats.hh"

namespace cbsim {

namespace {

/** One artifact row: its JSON (config, key) and its decoded outcome. */
struct Run
{
    const JsonValue* row;
    JobOutcome out;
};

/** The label a run takes along one axis of a table. */
using Axis = std::string (*)(const Run&);

std::string
field(const Run& r, const char* name)
{
    return r.row->get("config").getString(name);
}

const Axis kWorkload = [](const Run& r) { return field(r, "workload"); };
const Axis kTechnique = [](const Run& r) { return field(r, "technique"); };
const Axis kEntries = [](const Run& r) {
    return r.row->get("config").get("cb_entries_per_bank").text() + "e";
};
const Axis kTechniqueLock = [](const Run& r) {
    return field(r, "technique") + " + " + field(r, "lock");
};
const Axis kWorkloadTechnique = [](const Run& r) {
    return field(r, "workload") + " / " + field(r, "technique");
};
/** ablation_messages' custom rows carry only "messages/<technique>". */
const Axis kKeyTechnique = [](const Run& r) {
    const std::string key = r.row->getString("key");
    return key.substr(key.find('/') + 1);
};

/** How a metric reads its number from one run. */
using Of = double (*)(const ExperimentResult&);

/** A number read from one run, and the precision it prints with. */
struct Metric
{
    const char* title; ///< column title when a table's columns are metrics
    Of of;
    int decimals = 3;
    /** Text appended to an ok cell, read from that cell's own run. */
    std::string (*suffix)(const ExperimentResult&) = nullptr;
};

/** One RunResult counter, as a double. */
template <std::uint64_t RunResult::*Counter>
double
counter(const ExperimentResult& e)
{
    return static_cast<double>(e.run.*Counter);
}

/** Mean sync latency over the kinds a micro-bench exercises. */
double
syncLatency(const ExperimentResult& e)
{
    double total = 0;
    std::uint64_t count = 0;
    for (const auto& k : e.run.sync) {
        total += static_cast<double>(k.totalLatency);
        count += k.completions;
    }
    return count ? total / static_cast<double>(count) : 0.0;
}

/** "(L1/LLC/network)" shares of a run's on-chip energy. */
std::string
energyShares(const ExperimentResult& e)
{
    const EnergyBreakdown& b = e.energy;
    return "(" + fmt(b.l1 / b.onChip(), 2) + "/" + fmt(b.llc / b.onChip(), 2) +
           "/" + fmt(b.network / b.onChip(), 2) + ")";
}

/** §2.1 hand-off: one RunResult counter per communicated value. */
template <std::uint64_t RunResult::*Counter>
double
perValue(const ExperimentResult& e)
{
    return counter<Counter>(e) / kHandoffValues;
}

/** Messages per value without the writer's completion response (Data
 * under MESI, Ack under VIPS), as the paper counts both sides. */
const Of kExcludingWriterResponse = [](const ExperimentResult& e) {
    return perValue<&RunResult::packets>(e) - 1.0;
};
const Of kOnChipEnergy = [](const ExperimentResult& e) {
    return e.energy.onChip();
};
const Of kPauseSaving = [](const ExperimentResult& e) {
    return pauseSavings(e.run);
};

/** Share of a run's stall cycles spent blocked on callbacks, in %. */
double
pausablePercent(const ExperimentResult& e)
{
    const RunResult& r = e.run;
    return r.stallCycles ? 100.0 * static_cast<double>(r.cbBlockedCycles) /
                               static_cast<double>(r.stallCycles)
                         : 0.0;
}

const Metric kLlcSync{"LLC accesses", counter<&RunResult::llcSyncAccesses>};
const Metric kLatency{"latency", syncLatency};
const Metric kCycles{"exec-time", counter<&RunResult::cycles>};
const Metric kFlitHops{"net-traffic", counter<&RunResult::flitHops>};

/** How a table normalises each cell. */
enum class Norm
{
    None,
    RowMax,    ///< by the largest ok cell of its row
    RefColumn, ///< by the cell of its row in column `ref`
    RefRow,    ///< by the cell of its column in row `ref`
};

/** One table of a view: the spec the one table routine prints. */
struct Table
{
    const char* heading = nullptr; ///< printed as "--- heading ---"
    const char* corner;  ///< title of the row-label column
    unsigned labelWidth, cellWidth;
    Axis row;
    Axis col = nullptr; ///< nullptr: one column per metric
    std::vector<Metric> metrics;
    Norm norm = Norm::None;
    const char* ref = nullptr; ///< the reference column's or row's label
    /** Each cell is the geomean of its normalised runs along this axis. */
    Axis over = nullptr;
    bool geomeanRow = false;
    /** Raw columns read from the run in the reference column. */
    std::vector<Metric> atRef = {};
    Axis group = nullptr;       ///< a blank line where this label changes
    const char* only = nullptr; ///< keep only runs of this technique
};

/** One artifact's paper view: its tables and the text around them. */
struct View
{
    const char* bench;
    const char* intro;
    std::vector<Table> tables;
    const char* outro;
};

std::string
text(std::optional<double> v, const Metric& m, const ExperimentResult* e)
{
    if (!v)
        return "-";
    return fmt(*v, m.decimals) + (m.suffix && e ? m.suffix(*e) : "");
}

/** The one table routine: pivot the runs as @p t says and print them. */
void
renderTable(std::ostream& os, const std::vector<Run>& runs, const Table& t)
{
    using Cell = std::tuple<std::string, std::string, std::string>;
    std::vector<std::string> rows, cols, overs;
    std::map<std::string, std::string> groupOf;
    std::map<Cell, const ExperimentResult*> at; // nullptr: not ok
    const auto note = [](std::vector<std::string>& axis,
                         const std::string& label) {
        if (std::find(axis.begin(), axis.end(), label) == axis.end())
            axis.push_back(label);
    };
    for (const Run& r : runs) {
        if (t.only && kTechnique(r) != t.only)
            continue;
        const Cell c{t.row(r), t.col ? t.col(r) : "",
                     t.over ? t.over(r) : ""};
        note(rows, std::get<0>(c));
        note(cols, std::get<1>(c));
        note(overs, std::get<2>(c));
        if (t.group)
            groupOf.emplace(std::get<0>(c), t.group(r));
        at.emplace(c, r.out.ok ? &r.out.result : nullptr);
    }

    // The ok run at a cell, or nullptr.
    const auto find = [&](const std::string& row, const std::string& col,
                          const std::string& over) -> const ExperimentResult* {
        const auto it = at.find({row, col, over});
        return it == at.end() ? nullptr : it->second;
    };
    // A cell's value before any row-max normalisation; nullopt is "-".
    const auto value = [&](const std::string& row, const std::string& col,
                           const Metric& m) -> std::optional<double> {
        const bool ratio =
            t.norm == Norm::RefColumn || t.norm == Norm::RefRow;
        std::vector<double> vs;
        for (const std::string& over : overs) {
            const ExperimentResult* e = find(row, col, over);
            const ExperimentResult* base =
                t.norm == Norm::RefColumn ? find(row, t.ref, over)
                : t.norm == Norm::RefRow  ? find(t.ref, col, over)
                                          : e;
            if (!e || !base)
                return std::nullopt;
            vs.push_back(m.of(*e) / (ratio ? m.of(*base) : 1.0));
        }
        return t.over ? geomean(vs) : vs.front();
    };

    // One column per col-axis label of the one metric, or per metric.
    std::vector<std::pair<std::string, const Metric*>> columns;
    if (t.col)
        for (const std::string& c : cols)
            columns.emplace_back(c, &t.metrics.front());
    else
        for (const Metric& m : t.metrics)
            columns.emplace_back("", &m);
    std::vector<std::string> headers{t.corner};
    for (const auto& [c, m] : columns)
        headers.push_back(t.col ? c : m->title);
    for (const Metric& m : t.atRef)
        headers.push_back(m.title);

    if (t.heading)
        os << "--- " << t.heading << " ---\n";
    TablePrinter table(os, headers, t.labelWidth, t.cellWidth);
    std::vector<std::vector<double>> ok(columns.size()); // for geomeans
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::vector<std::optional<double>> vals;
        double max_v = 0.0;
        for (const auto& [c, m] : columns) {
            vals.push_back(value(rows[i], c, *m));
            max_v = std::max(max_v, vals.back().value_or(0.0));
        }
        std::vector<std::string> cells{rows[i]};
        for (std::size_t j = 0; j < columns.size(); ++j) {
            auto& v = vals[j];
            if (v && t.norm == Norm::RowMax)
                *v = max_v > 0 ? *v / max_v : 0;
            if (v)
                ok[j].push_back(*v);
            cells.push_back(text(v, *columns[j].second,
                                 find(rows[i], columns[j].first, "")));
        }
        for (const Metric& m : t.atRef) {
            const ExperimentResult* e = find(rows[i], t.ref, "");
            cells.push_back(e ? fmt(m.of(*e), m.decimals) : "-");
        }
        table.row(cells);
        if (t.group && i + 1 < rows.size() &&
            groupOf[rows[i]] != groupOf[rows[i + 1]])
            table.gap();
    }
    if (t.geomeanRow) {
        std::vector<std::string> cells{"geomean"};
        for (std::size_t j = 0; j < columns.size(); ++j)
            cells.push_back(text(ok[j].size() == rows.size()
                                     ? std::optional(geomean(ok[j]))
                                     : std::nullopt,
                                 *columns[j].second, nullptr));
        table.row(cells);
    }
    table.gap();
}

/** Figs. 1 and 20: construct × technique over the row's largest cell. */
Table
rowMaxTable(const char* corner, unsigned width, const Metric& m)
{
    return {.heading = m.title, .corner = corner, .labelWidth = 18,
            .cellWidth = width, .row = kWorkload, .col = kTechnique,
            .metrics = {m}, .norm = Norm::RowMax};
}

/** Figs. 21 and 22: benchmark × technique over Invalidation. */
Table
vsInvalidation(const char* heading, unsigned width, const Metric& m)
{
    return {.heading = heading, .corner = "benchmark", .labelWidth = 16,
            .cellWidth = width, .row = kWorkload, .col = kTechnique,
            .metrics = {m}, .norm = Norm::RefColumn, .ref = "Invalidation",
            .geomeanRow = true};
}

/** §5.2: benchmark × directory size over 4 entries, for one technique. */
Table
cbdirTable(const char* tech)
{
    return {.heading = tech, .corner = "benchmark", .labelWidth = 16,
            .cellWidth = 10, .row = kWorkload, .col = kEntries,
            .metrics = {kCycles}, .norm = Norm::RefColumn, .ref = "4e",
            .atRef = {{"evict@4", counter<&RunResult::cbdirEvictions>, 0}},
            .only = tech};
}

const View kViews[] = {
    {"fig01_motivation",
     "\n=== Figure 1: explicit invalidation vs. self-invalidation with "
     "back-off ===\n(normalized to the largest value per sync algorithm; "
     "latency = mean cycles per operation)\n\n",
     {rowMaxTable("sync-algo", 14, kLlcSync),
      rowMaxTable("sync-algo", 14, kLatency)},
     "Paper shape check: Invalidation has near-minimal LLC accesses and "
     "latency; BackOff-0 maximizes LLC accesses; increasing the "
     "exponentiation cap trades LLC accesses for latency (no single best "
     "back-off).\n"},
    {"fig20_sync",
     "\n=== Figure 20: effect of callbacks on synchronization ===\n"
     "(normalized to the highest result per construct)\n\n",
     {rowMaxTable("construct", 13, kLlcSync),
      rowMaxTable("construct", 13, kLatency)},
     "Paper shape check: back-off variants dominate LLC accesses on every "
     "construct; CB-All ~ CB-One except for T&T&S acquire and the SR "
     "barrier (which embeds a T&T&S), where only CB-One approaches "
     "Invalidation (§5.3); Invalidation loses in latency on the naive "
     "constructs (T&T&S, SR) under contention.\n"},
    {"fig21_apps",
     "\n=== Figure 21: execution time and network traffic, 19 benchmarks, "
     "scalable sync (CLH + TreeSR) ===\n(normalized to Invalidation)\n\n",
     {vsInvalidation("execution time (cycles)", 13, kCycles),
      vsInvalidation("network traffic (flit-hops)", 13, kFlitHops)},
     "Paper shape check (geomean row): callback variants <= 1.0 vs "
     "Invalidation in time, clearly < 1.0 in traffic, and beat BackOff-15 "
     "in traffic while matching the best back-off in time.\n"},
    {"fig22_energy",
     "\n=== Figure 22: energy consumption (normalized to Invalidation; "
     "components are fractions of the config's on-chip total) ===\n\n",
     {vsInvalidation(nullptr, 24, {"energy", kOnChipEnergy, 3, energyShares})},
     "Paper shape check: Invalidation is L1-heavy; BackOff-0/5 shift "
     "weight to LLC+network; callbacks minimize the total.\n"},
    {"fig23_scalability",
     "\n=== Figure 23: naive (T&T&S) vs scalable (CLH) locks, TreeSR "
     "barrier fixed ===\n(geomean over all benchmarks, normalized to "
     "Invalidation/CLH)\n\n",
     {{.corner = "config", .labelWidth = 28, .cellWidth = 14,
       .row = kTechniqueLock, .metrics = {kCycles, kFlitHops},
       .norm = Norm::RefRow, .ref = "Invalidation + CLH", .over = kWorkload}},
     "Paper shape check: Invalidation degrades in time with T&T&S; the "
     "callback rows are nearly identical between T&T&S and CLH.\n"},
    {"ablation_cbdir",
     "\n=== Ablation: callback directory entries per bank (execution time "
     "normalized to 4 entries) ===\n\n",
     {cbdirTable("CB-All"), cbdirTable("CB-One")},
     "Paper claim check: 4 vs 16/64/256 entries should be within noise "
     "(§5.2); only the 1-entry stress case may deviate.\n"},
    {"ablation_messages",
     "\n=== Ablation: messages per communicated value (paper §2.1: "
     "invalidation 5 vs callback 3) ===\n\n",
     {{.corner = "technique", .labelWidth = 16, .cellWidth = 18,
       .row = kKeyTechnique,
       .metrics = {{"msgs/value", perValue<&RunResult::packets>, 2},
                   {"excl-writer-rsp", kExcludingWriterResponse, 2},
                   {"flit-hops/val", perValue<&RunResult::flitHops>, 1}}}},
     "Expected: ~3 for CB-One ({callback, write, wake}, §2.1). The\n"
     "paper counts the idealized invalidation hand-off as 5\n"
     "({write, inv, ack, load, data}); a real directory MESI also\n"
     "pays owner forwarding on the reader's refetch (FwdGetS +\n"
     "owner data), which this bench measures (~7). Either way the\n"
     "callback moves fewer, smaller messages (see flit-hops).\n"},
    {"ablation_pause",
     "\n=== Ablation: pause-while-waiting (paper §2.1) ===\n(pausable = "
     "cycles blocked on callbacks; saving = core energy at corePaused vs "
     "coreActive)\n\n",
     {{.corner = "bench/technique", .labelWidth = 30, .cellWidth = 13,
       .row = kWorkloadTechnique,
       .metrics = {{"stall-cyc", counter<&RunResult::stallCycles>, 0},
                   {"pausable", counter<&RunResult::cbBlockedCycles>, 0},
                   {"pausable%", pausablePercent, 1},
                   {"saving-nJ", kPauseSaving, 1}},
       .group = kWorkload}},
     "Expected: only the callback techniques have a non-zero pausable "
     "fraction; for synchronization-heavy benchmarks most of their stall "
     "time is pausable.\n"},
};

} // namespace

bool
renderPaperView(const JsonValue& doc, std::ostream& os)
{
    const std::string bench = doc.getString("bench");
    const auto view =
        std::find_if(std::begin(kViews), std::end(kViews),
                     [&](const View& v) { return bench == v.bench; });
    if (view == std::end(kViews))
        return false;
    std::vector<Run> runs;
    for (const JsonValue& row : doc.get("runs").items())
        runs.push_back({&row, parseRunRow(row)});
    os << view->intro;
    for (const Table& t : view->tables)
        renderTable(os, runs, t);
    os << view->outro;
    return true;
}

} // namespace cbsim
