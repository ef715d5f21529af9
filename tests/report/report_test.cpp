/**
 * @file
 * Tests for the reporting layer behind cbsim-report: the JSON parser
 * (the read-side complement of harness/json.hh), paper-view and
 * contention rendering, the artifact diff, and the CLI entry point's
 * exit-code contract (0 ok / 1 regression / 2 usage or parse error).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "report/json_value.hh"
#include "report/report.hh"

namespace cbsim {
namespace {

TEST(JsonValue, ParsesScalarsContainersAndEscapes)
{
    std::string err;
    const JsonValue v = JsonValue::parse(
        R"({"a": 1, "b": [true, null, -2.5e1], "s": "x\n\"y\""})", err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.getNumber("a"), 1.0);
    EXPECT_EQ(v.get("a").text(), "1"); // raw token survives for display
    const auto& arr = v.get("b").items();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_TRUE(arr[0].boolean());
    EXPECT_TRUE(arr[1].isNull());
    EXPECT_EQ(arr[2].number(), -25.0);
    EXPECT_EQ(v.getString("s"), "x\n\"y\"");
    // Insertion order is preserved (artifacts have deterministic keys).
    EXPECT_EQ(v.members()[0].first, "a");
    EXPECT_EQ(v.members()[2].first, "s");
}

TEST(JsonValue, ReportsErrorsWithLineNumbers)
{
    std::string err;
    JsonValue::parse("{\n  \"a\": ,\n}", err);
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;

    JsonValue::parse("{} trailing", err);
    EXPECT_NE(err.find("trailing"), std::string::npos);

    JsonValue::parse("[1, 2", err);
    EXPECT_FALSE(err.empty());

    // Absent keys chain to a shared null instead of throwing.
    const JsonValue v = JsonValue::parse("{}", err);
    EXPECT_TRUE(v.get("missing").get("nested").isNull());
    EXPECT_EQ(v.getNumber("missing"), 0.0);
}

TEST(JsonValue, RejectsMalformedDocuments)
{
    // The one JSON reader in the tree must refuse everything a strict
    // parser refuses, so tests can use it as a well-formedness check.
    const char* const bad[] = {
        "{} x",            // trailing characters
        "[1, 2] ]",        // trailing characters
        "[1, 2,]",         // trailing comma in an array
        "{\"a\": 1,}",     // trailing comma in an object
        "\"abc",           // unterminated string
        "{\"a\": \"b}",    // unterminated string inside an object
        "\"\\x\"",         // unknown escape
        "\"\\uZZZZ\"",     // \u escape without hex digits
        "\"\\u12\"",       // truncated \u escape
        "tru",             // bad literal
        "[nul]",           // bad literal
        "falsey",          // bad literal
        "1.",              // malformed number: no fraction digits
        ".5",              // malformed number: no integer digits
        "+1",              // malformed number: leading plus
        "-",               // malformed number: sign only
        "1e",              // malformed number: empty exponent
        "1e+",             // malformed number: empty exponent
        "1.2.3",           // malformed number
        "[0x10]",          // malformed number
        "",                // empty document
    };
    for (const char* text : bad) {
        std::string err;
        JsonValue::parse(text, err);
        EXPECT_FALSE(err.empty()) << "accepted: " << text;
    }
    // The strict grammar still takes every number shape JsonWriter
    // emits.
    std::string err;
    const JsonValue v =
        JsonValue::parse("[0, -0, 12, -3.25, 1e5, 2.5E-3, 6e+2]", err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.items()[3].number(), -3.25);
    EXPECT_EQ(v.items()[5].number(), 2.5e-3);
    EXPECT_EQ(v.items()[6].text(), "6e+2");
}

/** A minimal two-run schema-v4 fig20_sync artifact, parsed. */
JsonValue
sampleArtifact(std::uint64_t invCycles, bool cbOk)
{
    std::ostringstream os;
    os << R"({
      "schema_version": 4, "generator": "cbsim", "bench": "fig20_sync",
      "meta": {},
      "runs": [
        {"key": "m/Invalidation",
         "config": {"kind": "micro", "workload": "TTS",
                    "technique": "Invalidation", "cores": 4},
         "ok": true, "status": "ok",
         "metrics": {"cycles": )"
       << invCycles << R"(, "llc_sync_accesses": 33, "flit_hops": 478},
         "contention": [
           {"addr": "0x40000040", "symbol": "lock0", "cycles": 2772,
            "invalidations": 17, "reacquires": 6, "spin_rereads": 0,
            "backoff_iters": 10, "parks": 0, "wakes": 0,
            "wake_evictions": 0, "park_ticks_p50": 0,
            "park_ticks_p95": 0, "park_ticks_p99": 0}]},
        {"key": "m/CB-One",
         "config": {"kind": "micro", "workload": "TTS",
                    "technique": "CB-One", "cores": 4},
         "ok": )"
       << (cbOk ? "true" : "false") << R"(,
         "status": ")" << (cbOk ? "ok" : "timeout") << R"(",
         "metrics": {"cycles": 6162, "llc_sync_accesses": 29,
                     "flit_hops": 140}}
      ]})";
    std::string err;
    JsonValue v = JsonValue::parse(os.str(), err);
    EXPECT_TRUE(err.empty()) << err;
    return v;
}

TEST(Report, RendersFigureTablesAndContention)
{
    std::ostringstream os;
    ASSERT_TRUE(renderFigureTables(sampleArtifact(7016, true), os));
    const std::string tables = os.str();
    EXPECT_NE(tables.find("schema v4"), std::string::npos);
    EXPECT_NE(tables.find("=== Figure 20"), std::string::npos) << tables;
    EXPECT_NE(tables.find("Invalidation"), std::string::npos);
    EXPECT_NE(tables.find("CB-One"), std::string::npos);
    // LLC accesses over the row's largest: 33 -> 1.000, 29 -> 0.879.
    EXPECT_NE(tables.find("1.000        0.879"), std::string::npos)
        << tables;

    std::ostringstream cs;
    ASSERT_TRUE(renderContention(sampleArtifact(7016, true), cs, 10));
    EXPECT_NE(cs.str().find("lock0"), std::string::npos);
    EXPECT_NE(cs.str().find("2772"), std::string::npos);

    // Not-an-artifact input is rejected, not rendered.
    std::string err;
    std::ostringstream bad;
    EXPECT_FALSE(renderFigureTables(JsonValue::parse("{}", err), bad));

    // So is an artifact whose bench has no paper view.
    std::ostringstream viewless;
    EXPECT_FALSE(renderFigureTables(
        JsonValue::parse(
            R"({"schema_version": 8, "bench": "t", "runs": []})", err),
        viewless));
    EXPECT_NE(viewless.str().find("no paper view for bench 't'"),
              std::string::npos)
        << viewless.str();
}

TEST(Report, DiffFlagsRegressionsImprovementsAndFailures)
{
    // +11% cycles on one run: a regression at the default 2% threshold.
    const DiffResult worse =
        diffArtifacts(sampleArtifact(7016, true),
                      sampleArtifact(7800, true), 0.02);
    ASSERT_EQ(worse.regressions.size(), 1u);
    EXPECT_NE(worse.regressions[0].find("cycles"), std::string::npos);
    EXPECT_NE(worse.regressions[0].find("7016 -> 7800"),
              std::string::npos);
    EXPECT_FALSE(worse.ok());

    // The same delta under a 20% threshold passes.
    EXPECT_TRUE(diffArtifacts(sampleArtifact(7016, true),
                              sampleArtifact(7800, true), 0.20)
                    .ok());

    // Improvements are informational, never failures.
    const DiffResult better = diffArtifacts(
        sampleArtifact(7800, true), sampleArtifact(7016, true), 0.02);
    EXPECT_TRUE(better.ok());
    ASSERT_EQ(better.improvements.size(), 1u);

    // A run flipping ok -> failed is always a regression.
    const DiffResult broke = diffArtifacts(sampleArtifact(7016, true),
                                           sampleArtifact(7016, false),
                                           0.02);
    ASSERT_EQ(broke.regressions.size(), 1u);
    EXPECT_NE(broke.regressions[0].find("timeout"), std::string::npos);

    // Identical artifacts diff clean.
    EXPECT_TRUE(diffArtifacts(sampleArtifact(7016, true),
                              sampleArtifact(7016, true), 0.02)
                    .ok());
}

/** A schema-v5 artifact whose CB-One run crashed and was quarantined. */
JsonValue
partialArtifact()
{
    std::string err;
    JsonValue v = JsonValue::parse(R"({
      "schema_version": 5, "generator": "cbsim", "bench": "fig20_sync",
      "meta": {},
      "runs": [
        {"key": "m/Invalidation",
         "config": {"kind": "micro", "workload": "TTS",
                    "technique": "Invalidation", "cores": 4},
         "ok": true, "status": "ok", "attempts": 1,
         "quarantined": false,
         "metrics": {"cycles": 7016, "llc_sync_accesses": 33,
                     "flit_hops": 478}},
        {"key": "m/CB-One",
         "config": {"kind": "micro", "workload": "TTS",
                    "technique": "CB-One", "cores": 4},
         "ok": false, "status": "crashed", "attempts": 2,
         "quarantined": true,
         "error": "job 'm/CB-One' crashed: killed by SIGKILL"}
      ]})",
                                   err);
    EXPECT_TRUE(err.empty()) << err;
    return v;
}

TEST(Report, FlagsPartialArtifactsAndQuarantinedDiffs)
{
    // Rendering a partial artifact names the damage up front.
    std::ostringstream os;
    ASSERT_TRUE(renderFigureTables(partialArtifact(), os));
    EXPECT_NE(os.str().find("WARNING: partial artifact"),
              std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("quarantined"), std::string::npos);
    // The crashed cell prints "-", not a value.
    EXPECT_NE(os.str().find("1.000            -"), std::string::npos)
        << os.str();

    // A healthy artifact stays warning-free.
    std::ostringstream clean;
    ASSERT_TRUE(renderFigureTables(sampleArtifact(7016, true), clean));
    EXPECT_EQ(clean.str().find("WARNING: partial artifact"),
              std::string::npos);

    // ok -> crashed+quarantined is a regression that says so.
    const DiffResult broke =
        diffArtifacts(sampleArtifact(7016, true), partialArtifact(), 0.02);
    ASSERT_EQ(broke.regressions.size(), 1u);
    EXPECT_NE(broke.regressions[0].find("quarantined"), std::string::npos)
        << broke.regressions[0];

    // Still-quarantined cells keep failing the diff even when the old
    // artifact was already broken: quarantine is never an accepted
    // steady state.
    const DiffResult stuck =
        diffArtifacts(partialArtifact(), partialArtifact(), 0.02);
    ASSERT_EQ(stuck.regressions.size(), 1u);
    EXPECT_NE(stuck.regressions[0].find("quarantined"), std::string::npos)
        << stuck.regressions[0];
}

/** The render of a checked-in golden artifact, split into lines. */
std::vector<std::string>
renderGolden(const std::string& path)
{
    std::string err;
    const JsonValue doc =
        JsonValue::parseFile(std::string(CBSIM_GOLDEN_DIR) + "/" + path, err);
    EXPECT_TRUE(err.empty()) << err;
    std::ostringstream os;
    EXPECT_TRUE(renderFigureTables(doc, os));
    std::vector<std::string> lines;
    std::istringstream in(os.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Whitespace-separated fields of one table line. */
std::vector<std::string>
fields(const std::string& line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string f; in >> f;)
        out.push_back(f);
    return out;
}

TEST(Report, CrashedCellPrintsDashAndLeavesItsRowMaxToOkCells)
{
    // The partial golden's crashed cell, fig01/CLH/BackOff-0, would be
    // the CLH row's largest LLC-access count; it must print "-" in both
    // tables instead of a plausible 0.000, and the row is normalised to
    // its largest ok cell.
    const std::vector<std::string> partial =
        renderGolden("partial/fig01_motivation.json");
    std::size_t backoff0 = 0;
    std::vector<std::string> treesr;
    int clh_rows = 0;
    for (const std::string& line : partial) {
        const std::vector<std::string> f = fields(line);
        if (!f.empty() && f[0] == "sync-algo") {
            ASSERT_EQ(f[2], "BackOff-0") << line;
            backoff0 = 2;
        } else if (!f.empty() && f[0] == "CLH") {
            ASSERT_EQ(f.size(), 6u) << line;
            EXPECT_EQ(f[backoff0], "-") << line;
            ++clh_rows;
        } else if (!f.empty() && f[0] == "TreeSR-barrier") {
            treesr.push_back(line);
        }
    }
    EXPECT_EQ(clh_rows, 2);

    // The TreeSR-barrier rows, all of whose cells are ok, print exactly
    // as in the healthy smoke golden.
    std::vector<std::string> healthy;
    for (const std::string& line :
         renderGolden("smoke/fig01_motivation.json"))
        if (line.rfind("TreeSR-barrier", 0) == 0)
            healthy.push_back(line);
    ASSERT_EQ(healthy.size(), 2u);
    EXPECT_EQ(treesr, healthy);
}

/**
 * A one-run schema-v7 artifact with a two-segment causal[] array.
 * @p dirQueue sets the dir_queue cycles; the partition reconciles with
 * stall_cycles (300) only when it is 250.
 */
JsonValue
causalArtifact(std::uint64_t dirQueue)
{
    std::ostringstream os;
    os << R"({
      "schema_version": 7, "generator": "cbsim", "bench": "t",
      "meta": {},
      "runs": [
        {"key": "m/CB-One",
         "config": {"kind": "micro", "workload": "TTS",
                    "technique": "CB-One", "cores": 4},
         "ok": true, "status": "ok",
         "metrics": {"cycles": 6162, "stall_cycles": 300},
         "causal": [
           {"segment": "spin_poll", "cycles": 50, "count": 5,
            "flit_hops": 0, "p50": 10.0, "p95": 12.0, "p99": 12.0},
           {"segment": "dir_queue", "cycles": )"
       << dirQueue << R"(, "count": 2,
            "flit_hops": 0, "p50": 125.0, "p95": 130.0, "p99": 130.0}
         ]}
      ]})";
    std::string err;
    JsonValue v = JsonValue::parse(os.str(), err);
    EXPECT_TRUE(err.empty()) << err;
    return v;
}

TEST(Report, RendersCausalBreakdownAndChecksThePartition)
{
    // A reconciling artifact renders the table without warnings.
    std::ostringstream os;
    ASSERT_TRUE(renderCausal(causalArtifact(250), os));
    const std::string out = os.str();
    EXPECT_NE(out.find("causal: m/CB-One"), std::string::npos) << out;
    EXPECT_NE(out.find("dir_queue"), std::string::npos);
    EXPECT_NE(out.find("stall_cycles 300"), std::string::npos);
    EXPECT_EQ(out.find("WARNING"), std::string::npos) << out;

    // A partition that misses stall_cycles is called out loudly.
    std::ostringstream bad;
    ASSERT_TRUE(renderCausal(causalArtifact(200), bad));
    EXPECT_NE(bad.str().find("WARNING: segment cycles sum to 250"),
              std::string::npos)
        << bad.str();

    // Artifacts without causal rows say so instead of printing nothing.
    std::ostringstream none;
    ASSERT_TRUE(renderCausal(sampleArtifact(7016, true), none));
    EXPECT_NE(none.str().find("no causal data"), std::string::npos);

    // Not-an-artifact input is rejected.
    std::string err;
    std::ostringstream rejected;
    EXPECT_FALSE(renderCausal(JsonValue::parse("{}", err), rejected));
}

TEST(Report, DiffReportsCausalShiftsAsNotesNotRegressions)
{
    // dir_queue 250 -> 280 (+12%) with stall_cycles unchanged: the
    // shift surfaces as a note, never as a regression — stall_cycles
    // itself already guards the total.
    const DiffResult d =
        diffArtifacts(causalArtifact(250), causalArtifact(280), 0.02);
    EXPECT_TRUE(d.ok());
    bool noted = false;
    for (const std::string& n : d.notes)
        if (n.find("causal dir_queue 250 -> 280") != std::string::npos)
            noted = true;
    EXPECT_TRUE(noted);

    // Below-threshold shifts stay silent.
    EXPECT_TRUE(diffArtifacts(causalArtifact(250), causalArtifact(251),
                              0.02)
                    .notes.empty());
}

TEST(Report, CliExitCodes)
{
    std::ostringstream os, err;
    // Usage errors: 2.
    EXPECT_EQ(reportMain({}, os, err), 2);
    EXPECT_EQ(reportMain({"--diff", "one.json"}, os, err), 2);
    EXPECT_EQ(reportMain({"--bogus"}, os, err), 2);
    // Unreadable artifact: 2.
    EXPECT_EQ(reportMain({"/nonexistent/a.json"}, os, err), 2);
    EXPECT_EQ(
        reportMain({"--diff", "/nonexistent/a.json", "/nonexistent/b.json"},
                   os, err),
        2);
    // --help prints usage and succeeds.
    EXPECT_EQ(reportMain({"--help"}, os, err), 0);
    EXPECT_NE(os.str().find("usage:"), std::string::npos);
}

} // namespace
} // namespace cbsim
