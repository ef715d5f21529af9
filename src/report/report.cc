#include "report/report.hh"

#include <cmath>
#include <map>
#include <sstream>

#include "harness/table.hh"

namespace cbsim {

namespace {

bool
isArtifact(const JsonValue& doc)
{
    return doc.isObject() && doc.get("schema_version").isNumber() &&
           doc.get("runs").isArray();
}

std::string
u64Str(double v)
{
    std::ostringstream os;
    os << static_cast<std::uint64_t>(v);
    return os.str();
}

} // namespace

bool
renderFigureTables(const JsonValue& doc, std::ostream& os)
{
    if (!isArtifact(doc)) {
        os << "error: not a cbsim results artifact (missing "
              "schema_version/runs)\n";
        return false;
    }
    os << "artifact: " << doc.getString("bench") << " (schema v"
       << u64Str(doc.getNumber("schema_version")) << ", "
       << doc.get("runs").items().size() << " runs)\n";

    // A partial artifact (crashed/failed/timed-out/skipped or
    // quarantined cells — e.g. published by a sweep that exhausted its
    // retries) must not be mistaken for a complete regeneration.
    std::size_t not_ok = 0;
    std::size_t quarantined = 0;
    for (const JsonValue& run : doc.get("runs").items()) {
        if (!run.get("ok").boolean())
            ++not_ok;
        if (run.get("quarantined").boolean())
            ++quarantined;
    }
    if (not_ok != 0) {
        os << "WARNING: partial artifact: " << not_ok << " of "
           << doc.get("runs").items().size() << " runs not ok";
        if (quarantined != 0)
            os << " (" << quarantined << " quarantined)";
        os << "\n";
    }

    if (!renderPaperView(doc, os)) {
        os << "error: no paper view for bench '" << doc.getString("bench")
           << "'\n";
        return false;
    }
    return true;
}

bool
renderContention(const JsonValue& doc, std::ostream& os, std::size_t top_n)
{
    if (!isArtifact(doc)) {
        os << "error: not a cbsim results artifact (missing "
              "schema_version/runs)\n";
        return false;
    }
    bool any = false;
    for (const JsonValue& run : doc.get("runs").items()) {
        const JsonValue& rows = run.get("contention");
        if (!rows.isArray() || rows.items().empty())
            continue;
        any = true;
        os << "\ncontention: " << run.getString("key") << "\n";
        TablePrinter t(os,
                       {"object", "cycles", "inv", "reacq", "spin_rr",
                        "backoff", "parks", "wakes", "evict", "park_p95"},
                       20, 10);
        std::size_t printed = 0;
        for (const JsonValue& row : rows.items()) {
            if (printed++ >= top_n)
                break;
            std::string object = row.getString("symbol");
            if (object.empty())
                object = row.getString("addr");
            t.row({object, u64Str(row.getNumber("cycles")),
                   u64Str(row.getNumber("invalidations")),
                   u64Str(row.getNumber("reacquires")),
                   u64Str(row.getNumber("spin_rereads")),
                   u64Str(row.getNumber("backoff_iters")),
                   u64Str(row.getNumber("parks")),
                   u64Str(row.getNumber("wakes")),
                   u64Str(row.getNumber("wake_evictions")),
                   fmt(row.getNumber("park_ticks_p95"), 1)});
        }
    }
    if (!any)
        os << "\n(no contention data: artifact predates schema v4 or "
              "attribution was off)\n";
    return true;
}

bool
renderCausal(const JsonValue& doc, std::ostream& os)
{
    if (!isArtifact(doc)) {
        os << "error: not a cbsim results artifact (missing "
              "schema_version/runs)\n";
        return false;
    }
    bool any = false;
    for (const JsonValue& run : doc.get("runs").items()) {
        const JsonValue& rows = run.get("causal");
        if (!rows.isArray() || rows.items().empty())
            continue;
        any = true;
        const double stall =
            run.get("metrics").getNumber("stall_cycles");
        os << "\ncausal: " << run.getString("key") << " (stall_cycles "
           << u64Str(stall) << ")\n";
        TablePrinter t(os,
                       {"segment", "cycles", "share", "count",
                        "flit_hops", "p50", "p95", "p99"},
                       18, 12);
        double sum = 0;
        for (const JsonValue& row : rows.items()) {
            const double cycles = row.getNumber("cycles");
            sum += cycles;
            const double share = stall > 0 ? cycles / stall : 0.0;
            t.row({row.getString("segment"), u64Str(cycles),
                   fmt(share * 100.0, 1) + "%",
                   u64Str(row.getNumber("count")),
                   u64Str(row.getNumber("flit_hops")),
                   fmt(row.getNumber("p50"), 1),
                   fmt(row.getNumber("p95"), 1),
                   fmt(row.getNumber("p99"), 1)});
        }
        // The segments are an exact partition of the run's stall
        // cycles; a mismatch means the stitcher dropped or
        // double-counted a span.
        if (sum != stall)
            os << "WARNING: segment cycles sum to " << u64Str(sum)
               << ", not stall_cycles " << u64Str(stall) << "\n";
    }
    if (!any)
        os << "\n(no causal data: artifact predates schema v7 or "
              "causal tracing was off)\n";
    return true;
}

DiffResult
diffArtifacts(const JsonValue& old_doc, const JsonValue& new_doc,
              double threshold)
{
    DiffResult d;
    if (!isArtifact(old_doc) || !isArtifact(new_doc)) {
        d.regressions.push_back("not a cbsim results artifact");
        return d;
    }
    if (old_doc.getNumber("schema_version") !=
        new_doc.getNumber("schema_version"))
        d.notes.push_back(
            "schema version changed: v" +
            u64Str(old_doc.getNumber("schema_version")) + " -> v" +
            u64Str(new_doc.getNumber("schema_version")));

    std::map<std::string, const JsonValue*> newRuns;
    for (const JsonValue& run : new_doc.get("runs").items())
        newRuns[run.getString("key")] = &run;

    std::map<std::string, bool> oldSeen;
    for (const JsonValue& oldRun : old_doc.get("runs").items()) {
        const std::string key = oldRun.getString("key");
        oldSeen[key] = true;
        auto it = newRuns.find(key);
        if (it == newRuns.end()) {
            d.regressions.push_back(key + ": missing from new artifact");
            continue;
        }
        const JsonValue& newRun = *it->second;
        const bool oldOk = oldRun.get("ok").boolean();
        const bool newOk = newRun.get("ok").boolean();
        // A quarantined cell failed every retry attempt — that is a
        // reproducible failure, never noise, whatever the baseline
        // said about the cell.
        const bool newQuarantined =
            newRun.get("quarantined").boolean();
        if (oldOk && !newOk) {
            d.regressions.push_back(
                key + ": was ok, now " + newRun.getString("status") +
                (newQuarantined ? " (quarantined)" : ""));
            continue;
        }
        if (!oldOk) {
            if (newOk)
                d.notes.push_back(key + ": was failing, now ok");
            else if (newQuarantined)
                d.regressions.push_back(
                    key + ": quarantined (" +
                    newRun.getString("status") +
                    " after exhausting retries)");
            continue;
        }

        // Every metric is a cost: increases are regressions.
        const JsonValue& newMetrics = newRun.get("metrics");
        for (const auto& [name, oldVal] : oldRun.get("metrics").members()) {
            if (!oldVal.isNumber() ||
                !newMetrics.get(name).isNumber())
                continue;
            const double ov = oldVal.number();
            const double nv = newMetrics.get(name).number();
            if (ov == nv)
                continue;
            const double rel = (nv - ov) / (ov == 0.0 ? 1.0 : ov);
            if (std::abs(rel) <= threshold)
                continue;
            std::ostringstream msg;
            msg << key << ": " << name << " " << oldVal.text() << " -> "
                << newMetrics.get(name).text() << " ("
                << (rel > 0 ? "+" : "") << fmt(rel * 100.0, 1) << "%)";
            if (rel > 0)
                d.regressions.push_back(msg.str());
            else
                d.improvements.push_back(msg.str());
        }

        // Causal segments partition stall_cycles, which the metric loop
        // above already treats as a cost — a shift between segments at
        // the same total is diagnostic, so surface it as a note rather
        // than double-counting a regression.
        const JsonValue& oldCausal = oldRun.get("causal");
        const JsonValue& newCausal = newRun.get("causal");
        if (oldCausal.isArray() && newCausal.isArray()) {
            std::map<std::string, const JsonValue*> newSegs;
            for (const JsonValue& seg : newCausal.items())
                newSegs[seg.getString("segment")] = &seg;
            for (const JsonValue& seg : oldCausal.items()) {
                auto sit = newSegs.find(seg.getString("segment"));
                if (sit == newSegs.end())
                    continue;
                const double ov = seg.getNumber("cycles");
                const double nv = sit->second->getNumber("cycles");
                if (ov == nv)
                    continue;
                const double rel = (nv - ov) / (ov == 0.0 ? 1.0 : ov);
                if (std::abs(rel) <= threshold)
                    continue;
                std::ostringstream msg;
                msg << key << ": causal " << seg.getString("segment")
                    << " " << u64Str(ov) << " -> " << u64Str(nv)
                    << " (" << (rel > 0 ? "+" : "")
                    << fmt(rel * 100.0, 1) << "%)";
                d.notes.push_back(msg.str());
            }
        }
    }
    for (const auto& [key, run] : newRuns)
        if (oldSeen.count(key) == 0)
            d.notes.push_back(key + ": new run (no baseline)");
    return d;
}

namespace {

int
usage(std::ostream& err)
{
    err << "usage: cbsim-report <artifact.json> [--top N] [--causal]\n"
           "       cbsim-report --diff <old.json> <new.json> "
           "[--threshold FRAC]\n"
           "\n"
           "Render a bench/results artifact (docs/RESULTS.md) as its "
           "figure's\n"
           "paper view plus the per-run contention attribution breakdown "
           "(an\n"
           "artifact whose bench has no view is an error, exit 1), or "
           "diff\n"
           "two artifacts and fail (exit 1) on cost-metric regressions "
           "beyond\n"
           "the threshold (default 0.02 = 2%). Partial artifacts "
           "(failed,\n"
           "crashed, or quarantined cells) are flagged when rendered; "
           "--diff\n"
           "treats quarantined cells as regressions, not noise, and "
           "reports\n"
           "per-segment causal shifts (schema v7) as notes. --causal "
           "renders\n"
           "only the causal critical-path breakdown "
           "(docs/OBSERVABILITY.md).\n";
    return 2;
}

} // namespace

int
reportMain(const std::vector<std::string>& args, std::ostream& os,
           std::ostream& err)
{
    bool diffMode = false;
    bool causalMode = false;
    double threshold = 0.02;
    std::size_t topN = 10;
    std::vector<std::string> paths;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "--help" || a == "-h") {
            usage(os);
            return 0;
        }
        if (a == "--diff") {
            diffMode = true;
        } else if (a == "--causal") {
            causalMode = true;
        } else if (a == "--threshold" && i + 1 < args.size()) {
            threshold = std::strtod(args[++i].c_str(), nullptr);
        } else if (a == "--top" && i + 1 < args.size()) {
            topN = static_cast<std::size_t>(
                std::strtoul(args[++i].c_str(), nullptr, 10));
        } else if (!a.empty() && a[0] == '-') {
            err << "error: unknown option " << a << "\n";
            return usage(err);
        } else {
            paths.push_back(a);
        }
    }

    if (diffMode) {
        if (paths.size() != 2)
            return usage(err);
        std::string error;
        const JsonValue oldDoc = JsonValue::parseFile(paths[0], error);
        if (!error.empty()) {
            err << "error: " << error << "\n";
            return 2;
        }
        const JsonValue newDoc = JsonValue::parseFile(paths[1], error);
        if (!error.empty()) {
            err << "error: " << error << "\n";
            return 2;
        }
        const DiffResult d = diffArtifacts(oldDoc, newDoc, threshold);
        for (const std::string& n : d.notes)
            os << "note: " << n << "\n";
        for (const std::string& s : d.improvements)
            os << "improved: " << s << "\n";
        for (const std::string& r : d.regressions)
            os << "REGRESSION: " << r << "\n";
        os << (d.ok() ? "diff ok" : "diff FAILED") << ": "
           << d.regressions.size() << " regressions, "
           << d.improvements.size() << " improvements, " << d.notes.size()
           << " notes (threshold " << fmt(threshold * 100.0, 1) << "%)\n";
        return d.ok() ? 0 : 1;
    }

    if (paths.size() != 1)
        return usage(err);
    std::string error;
    const JsonValue doc = JsonValue::parseFile(paths[0], error);
    if (!error.empty()) {
        err << "error: " << error << "\n";
        return 2;
    }
    if (causalMode)
        return renderCausal(doc, os) ? 0 : 1;
    if (!renderFigureTables(doc, os))
        return 1;
    if (!renderContention(doc, os, topN))
        return 1;
    return 0;
}

} // namespace cbsim
