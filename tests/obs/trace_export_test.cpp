/**
 * @file
 * Trace-exporter tests: event emission, schema validity of the JSON
 * (tests/support/trace_schema.hh), file export via the DebugConfig
 * layering, and the in-memory "-" mode (docs/OBSERVABILITY.md).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "isa/assembler.hh"

#include "debug/debug_config.hh"
#include "harness/experiment.hh"
#include "obs/trace_export.hh"
#include "support/trace_schema.hh"
#include "sync/layout.hh"
#include "system/chip.hh"

namespace cbsim {
namespace {

std::string
jsonOf(const TraceExporter& t)
{
    std::ostringstream os;
    t.writeJson(os);
    return os.str();
}

TEST(TraceExporter, EmptyTraceIsSchemaValid)
{
    TraceExporter t(2, 2);
    EXPECT_EQ(t.eventCount(), 0u);
    const auto errs = test::validateTrace(jsonOf(t));
    EXPECT_TRUE(errs.empty()) << errs.front();
}

TEST(TraceExporter, EventKindsSerializeWithTheirPhases)
{
    TraceExporter t(4, 4);
    t.coreSlice(1, "spin", 100, 250);
    t.park(2, 1, 300);
    t.wake(2, 1, 400, false);
    t.wake(2, 3, 410, true);
    t.counter("llc_accesses", 500, 17);
    EXPECT_EQ(t.eventCount(), 5u);

    const std::string json = jsonOf(t);
    const auto errs = test::validateTrace(json);
    EXPECT_TRUE(errs.empty()) << errs.front();

    std::string error;
    const JsonValue root = JsonValue::parse(json, error);
    ASSERT_EQ(error, "");
    const auto& events = root.get("traceEvents").items();
    // Metadata first (4 process names + 4 cores + 4 banks), then ours.
    ASSERT_EQ(events.size(), 12u + 5u);
    const JsonValue& slice = events[12];
    EXPECT_EQ(slice.get("name").text(), "spin");
    EXPECT_EQ(slice.get("ph").text(), "X");
    EXPECT_EQ(slice.get("ts").number(), 100.0);
    EXPECT_EQ(slice.get("dur").number(), 150.0);
    EXPECT_EQ(slice.get("tid").number(), 1.0);

    const JsonValue& park = events[13];
    EXPECT_EQ(park.get("ph").text(), "i");
    EXPECT_EQ(park.get("args").get("core").number(), 1.0);

    EXPECT_EQ(events[15].get("name").text(), "wake-evict");
    EXPECT_EQ(events[16].get("ph").text(), "C");
    EXPECT_EQ(events[16].get("args").get("value").number(), 17.0);
}

TEST(TraceExporter, ContendedLineSlicesPairOnSymbolicNames)
{
    std::map<Addr, std::string> symbols{{0x1008, "lock0"}};
    TraceExporter t(2, 1);
    t.setSymbols(&symbols);
    t.linePark(0x1008, 1, 100); // 0x1008's line is labeled "lock0"
    t.lineWake(0x1008, 1, 200);
    t.linePark(0x2000, 0, 150); // unlabeled line: hex fallback

    const std::string json = jsonOf(t);
    const auto errs = test::validateTrace(json);
    EXPECT_TRUE(errs.empty()) << errs.front();

    std::string error;
    const JsonValue root = JsonValue::parse(json, error);
    ASSERT_EQ(error, "");
    const auto& events = root.get("traceEvents").items();
    // 4 process metas + 2 core threads + 1 bank thread, then ours.
    ASSERT_EQ(events.size(), 7u + 3u);
    const JsonValue& park = events[7];
    const JsonValue& wakeEv = events[8];
    EXPECT_EQ(park.get("name").text(), "lock0");
    EXPECT_EQ(park.get("ph").text(), "b");
    EXPECT_EQ(park.get("pid").number(), 4.0);
    EXPECT_EQ(park.get("cat").text(), "contention");
    EXPECT_EQ(wakeEv.get("ph").text(), "e");
    // The 'b'/'e' pair matches on the same async id.
    EXPECT_EQ(park.get("id").number(), wakeEv.get("id").number());
    EXPECT_EQ(events[9].get("name").text(), "0x2000");
}

TEST(TraceExporter, WriteFileSanitizesTheLabel)
{
    const std::string dir = ::testing::TempDir() + "cbsim_trace_test";
    std::filesystem::remove_all(dir);

    TraceExporter t(1, 1);
    t.coreSlice(0, "mem", 0, 10);
    const std::string path = t.writeFile(dir, "fig20/CLH CB-One");
    ASSERT_FALSE(path.empty());
    // Substituted labels get a hash suffix so "fig20/CLH CB-One" and
    // "fig20_CLH_CB-One" never overwrite each other's trace.
    EXPECT_EQ(path, dir + "/fig20_CLH_CB-One-7a7e3c17.trace.json");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const auto errs = test::validateTrace(ss.str());
    EXPECT_TRUE(errs.empty()) << errs.front();
    std::filesystem::remove_all(dir);
}

TEST(TraceExporter, DashDirectoryMeansInMemoryOnly)
{
    TraceExporter t(1, 1);
    t.coreSlice(0, "mem", 0, 10);
    EXPECT_EQ(t.writeFile("-", "label"), "");
    EXPECT_EQ(t.writeFile("", "label"), "");
}

/**
 * Run a 4-core chip with tracing in-memory, its data lines named by
 * @p names; return the trace JSON.
 */
std::string
tracedChipJson(Technique tech,
               const std::function<Program(CoreId)>& program,
               const std::map<Addr, std::string>& names = {})
{
    DebugConfig cfg = DebugConfig::current();
    cfg.obs.traceDir = "-";
    DebugScope scope(cfg);

    ChipConfig chipCfg = ChipConfig::forTechnique(tech, 4);
    Chip chip(chipCfg);
    EXPECT_NE(chip.traceExporter(), nullptr);
    chip.setLineNames(names);
    for (CoreId c = 0; c < 4; ++c)
        chip.setProgram(c, program(c));
    chip.run();
    std::ostringstream os;
    chip.traceExporter()->writeJson(os);
    return os.str();
}

TEST(TraceExporter, ChipRunEmitsASchemaValidTrace)
{
    // Trivial per-core programs: one DRF store each, then done.
    const std::string json =
        tracedChipJson(Technique::CbOne, [](CoreId c) {
            Assembler a;
            a.movImm(1, 0x1000 + 0x40 * static_cast<Addr>(c));
            a.stImm(7, 1);
            a.done();
            return a.assemble();
        });
    const auto errs = test::validateTrace(json);
    EXPECT_TRUE(errs.empty()) << errs.front();
    // The stores miss the L1, so cores contribute "mem" slices.
    EXPECT_NE(json.find("\"mem\""), std::string::npos);
}

TEST(TraceExporter, OffByDefaultCreatesNoExporter)
{
    ChipConfig cfg = ChipConfig::forTechnique(Technique::CbOne, 4);
    Chip chip(cfg);
    EXPECT_EQ(chip.traceExporter(), nullptr);
}

TEST(TraceExporter, ParkAndWakeLandOnTheCbdirTracks)
{
    // Core 0 spins on a callback read of a word that stays 0 until
    // core 1's delayed st_cb1: at least one ld_cb parks in the
    // directory, and the store wakes it.
    constexpr Addr flag = 0x2000;
    SyncLayout layout;
    layout.nameLine(flag, "flag0");
    const std::string json = tracedChipJson(
        Technique::CbOne,
        [](CoreId c) {
            Assembler a;
            a.movImm(1, flag);
            if (c == 0) {
                const Label spin = a.newLabel();
                a.bind(spin);
                a.ldCb(2, 1);
                a.beqz(2, spin);
            } else if (c == 1) {
                a.workImm(5000);
                a.stCb1Imm(7, 1);
            }
            a.done();
            return a.assemble();
        },
        layout.lineNames());
    const auto errs = test::validateTrace(json);
    EXPECT_TRUE(errs.empty()) << errs.front();
    EXPECT_NE(json.find("\"park\""), std::string::npos);
    EXPECT_NE(json.find("\"wake\""), std::string::npos);
    EXPECT_NE(json.find("\"cbdir-blocked\""), std::string::npos);
    // The layout's line names reach the exporter: the parked line is
    // named, not shown in hex.
    EXPECT_NE(json.find("\"flag0\""), std::string::npos);
}

} // namespace
} // namespace cbsim
