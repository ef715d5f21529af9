/**
 * @file
 * Watchdog and forensic-dump tests: the event queue's poll hook, the
 * no-progress and wall-clock trips, tick-budget exhaustion (fatal, per
 * the log.hh contract), and the forensic JSON a failing run leaves
 * behind — including the acceptance scenario of a deliberately
 * deadlocked workload whose dump names the blocked core and the
 * callback-directory entry it is stuck on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "../support/chip_helpers.hh"
#include "debug/forensics.hh"
#include "debug/watchdog.hh"
#include "report/json_value.hh"

namespace cbsim {
namespace {

constexpr Addr kFlag = 0x10000;

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** JsonValue's diagnostic for @p text; empty when it is well formed. */
std::string
parseError(const std::string& text)
{
    std::string error;
    JsonValue::parse(text, error);
    return error;
}

TEST(EventQueuePollHook, FiresEveryNEvents)
{
    EventQueue eq;
    unsigned polls = 0;
    eq.setPollHook(2, [&polls] { ++polls; });
    for (Tick t = 1; t <= 8; ++t)
        eq.schedule(t, [] {});
    eq.run(1000);
    EXPECT_EQ(polls, 4u);
}

TEST(EventQueuePollHook, OffByDefault)
{
    EventQueue eq;
    for (Tick t = 1; t <= 8; ++t)
        eq.schedule(t, [] {});
    eq.run(1000); // no hook installed: nothing to fire
    EXPECT_EQ(eq.executedEvents(), 8u);
}

TEST(Watchdog, TripsOnNoProgressWindow)
{
    EventQueue eq;
    DebugConfig cfg;
    cfg.noProgressWindow = 10;
    cfg.checkIntervalEvents = 1;
    Watchdog::Hooks hooks;
    hooks.progressCounter = [] { return std::uint64_t{42}; }; // stuck
    Watchdog wd(eq, cfg, std::move(hooks));
    wd.install();
    eq.schedule(100, [] {});
    EXPECT_THROW(eq.run(1000), FatalError);
}

TEST(Watchdog, ProgressResetsTheWindow)
{
    EventQueue eq;
    DebugConfig cfg;
    cfg.noProgressWindow = 10;
    cfg.checkIntervalEvents = 1;
    std::uint64_t retired = 0;
    Watchdog::Hooks hooks;
    hooks.progressCounter = [&retired] { return retired; };
    Watchdog wd(eq, cfg, std::move(hooks));
    wd.install();
    // Each event retires an instruction: never trips, however long the
    // tick gaps are.
    for (Tick t = 100; t <= 500; t += 100)
        eq.schedule(t, [&retired] { ++retired; });
    EXPECT_NO_THROW(eq.run(10'000));
}

TEST(Watchdog, WallClockBudgetTripsAsTimeoutError)
{
    ChipConfig cfg = testConfig(Technique::CbAll, 4);
    cfg.debug.wallTimeoutS = 1e-9; // any elapsed time trips
    cfg.debug.checkIntervalEvents = 1;
    cfg.debug.forensicDir.clear();
    Chip chip(cfg);
    idleAll(chip);
    Assembler a;
    a.workImm(500);
    chip.setProgram(0, a.assemble());
    EXPECT_THROW(chip.run(), TimeoutError);
}

TEST(Watchdog, TickBudgetExhaustionIsFatalAndDumpsForensics)
{
    const std::string dir = ::testing::TempDir();
    ChipConfig cfg = testConfig(Technique::CbAll, 4);
    cfg.maxTicks = 1000; // the endless store loop below blows this
    cfg.debug.forensicDir = dir;
    cfg.debug.label = "tick-budget-test";
    Chip chip(cfg);
    idleAll(chip);
    // An infinite loop of through-stores keeps scheduling NoC events at
    // ever-later ticks, so the queue must cross the budget.
    Assembler a;
    const Label fwd = a.newLabel();
    a.movImm(1, kFlag);
    a.bind(fwd);
    a.stThroughImm(1, 1);
    a.jump(fwd);
    chip.setProgram(0, a.assemble());
    EXPECT_THROW(chip.run(), FatalError);

    const std::string path = dir + "/tick-budget-test.forensic.json";
    const std::string json = slurp(path);
    ASSERT_FALSE(json.empty()) << "no forensic dump at " << path;
    EXPECT_EQ(parseError(json), "") << json;
    EXPECT_NE(json.find("tick budget"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Watchdog, ForensicsListInFlightPacketsWithoutInvariantChecking)
{
    // The mesh's packet pool is the record of what is in flight on every
    // chip, so the dump lists it even with checking (and faults) off.
    const std::string dir = ::testing::TempDir();
    ChipConfig cfg = testConfig(Technique::CbAll, 4);
    // kFlag's home is bank 0, two hops (12+ ticks) from core 3: the
    // budget runs out while core 3's request is still in the mesh.
    cfg.maxTicks = 10;
    cfg.debug.checkInvariants = false;
    cfg.debug.forensicDir = dir;
    cfg.debug.label = "in-flight-test";
    Chip chip(cfg);
    idleAll(chip);
    Assembler a;
    a.movImm(1, kFlag);
    a.ldThrough(2, 1);
    chip.setProgram(3, a.assemble());
    EXPECT_THROW(chip.run(), FatalError);

    const std::string path = dir + "/in-flight-test.forensic.json";
    std::string error;
    const JsonValue dump = JsonValue::parseFile(path, error);
    ASSERT_EQ(error, "");
    const JsonValue& inFlight = dump.get("noc_in_flight");
    ASSERT_TRUE(inFlight.isArray());
    ASSERT_EQ(inFlight.items().size(), 1u);
    const JsonValue& packet = inFlight.items().front();
    EXPECT_NE(packet.getString("message").find("src=3 dst=0:bank"),
              std::string::npos)
        << packet.getString("message");
    // X first: 3 -> 2 -> 0; injected by the L1 at tick 1.
    EXPECT_EQ(packet.getNumber("at_node"), 2.0);
    EXPECT_EQ(packet.getNumber("injected_at"), 1.0);
    EXPECT_TRUE(dump.get("invariant_violations").isNull());
    std::remove(path.c_str());
}

TEST(Watchdog, DeadlockedCallbackDumpNamesBlockedCoreAndEntry)
{
    const std::string dir = ::testing::TempDir();
    ChipConfig cfg = testConfig(Technique::CbAll, 4);
    cfg.debug.forensicDir = dir;
    cfg.debug.label = "deadlock-test";
    Chip chip(cfg);
    idleAll(chip);
    // ld_cb on a fresh entry returns immediately (F/E starts full); the
    // second consumes an Empty slot and blocks forever — nobody writes.
    Assembler a;
    a.movImm(1, kFlag);
    a.ldCb(2, 1);
    a.ldCb(2, 1);
    chip.setProgram(1, a.assemble());
    EXPECT_THROW(chip.run(), FatalError);
    EXPECT_EQ(chip.finishedCores(), 3u);

    const std::string json =
        slurp(dir + "/deadlock-test.forensic.json");
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(parseError(json), "") << json;
    // The dump names the blocked core's op/address...
    EXPECT_NE(json.find("\"blocked_on\""), std::string::npos);
    EXPECT_NE(json.find("\"ld_cb\""), std::string::npos);
    // ...and the callback-directory entry/waiter it is stuck on.
    EXPECT_NE(json.find("\"parked_waiters\""), std::string::npos);
    std::ostringstream word;
    word << "\"word\": " << kFlag;
    EXPECT_NE(json.find(word.str()), std::string::npos) << json;
    std::remove((dir + "/deadlock-test.forensic.json").c_str());
}

TEST(Forensics, ReportIsWellFormedOnAHealthyChip)
{
    ChipConfig cfg = testConfig(Technique::CbOne, 4);
    cfg.debug.checkInvariants = true;
    cfg.debug.forensicDir.clear(); // stderr only; we use the return
    Chip chip(cfg);
    idleAll(chip);
    Assembler a;
    a.movImm(1, kFlag);
    a.stThroughImm(7, 1);
    a.ldThrough(2, 1);
    chip.setProgram(0, a.assemble());
    chip.run();
    // Compose the report directly (no failure needed) and validate it.
    testing::internal::CaptureStderr();
    chip.dumpForensics("unit test");
    const std::string err = testing::internal::GetCapturedStderr();
    const auto begin = err.find('{');
    const auto end = err.rfind('}');
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    const std::string json = err.substr(begin, end - begin + 1);
    EXPECT_EQ(parseError(json), "") << json;
    EXPECT_NE(json.find("\"schema\": \"cbsim-forensic-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cores\""), std::string::npos);
    EXPECT_NE(json.find("\"event_queue\""), std::string::npos);
    EXPECT_NE(json.find("\"banks\""), std::string::npos);
}

TEST(Forensics, LabelSanitization)
{
    // Substituted labels carry a hash of the original so distinct
    // labels can never collide on one file ("a/b" vs "a_b").
    EXPECT_EQ(forensics::sanitizeLabel("fig20/CLH/CB-One"),
              "fig20_CLH_CB-One-6ccf597e");
    EXPECT_EQ(forensics::sanitizeLabel(""), "run");
    EXPECT_EQ(forensics::sanitizeLabel("a b\tc"), "a_b_c-4f5959e6");
    // Clean labels stay verbatim — no suffix churn for existing users.
    EXPECT_EQ(forensics::sanitizeLabel("smoke_run.1"), "smoke_run.1");
    EXPECT_NE(forensics::sanitizeLabel("a/b"), forensics::sanitizeLabel("a_b"));
}

} // namespace
} // namespace cbsim
