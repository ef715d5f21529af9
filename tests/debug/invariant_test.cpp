/**
 * @file
 * Protocol invariant checker tests: clean runs stay silent under both
 * protocol families, a hand-corrupted callback directory is caught and
 * named, enforce() panics per the log.hh contract, and the corrupt
 * sweep-job-kind path is a panic (simulator bug), not a fatal.
 */

#include <gtest/gtest.h>

#include "../support/chip_helpers.hh"
#include "debug/invariant_checker.hh"
#include "harness/sweep.hh"

namespace cbsim {
namespace {

constexpr Addr kFlag = 0x10000;

ChipConfig
checkedConfig(Technique t)
{
    ChipConfig cfg = testConfig(t, 4);
    cfg.debug.checkInvariants = true;
    cfg.debug.checkIntervalEvents = 50; // check aggressively
    cfg.debug.forensicDir.clear();
    return cfg;
}

void
loadHandOff(Chip& chip)
{
    idleAll(chip);
    Assembler s;
    const Label spn = s.newLabel();
    s.movImm(1, kFlag);
    s.bind(spn);
    s.ldCb(2, 1).spin = true;
    s.beqz(2, spn);
    chip.setProgram(1, s.assemble());
    Assembler w;
    w.workImm(4000);
    w.movImm(1, kFlag);
    w.stThroughImm(1, 1);
    chip.setProgram(0, w.assemble());
}

TEST(InvariantChecker, NamesAreStableAndCoverBothFamilies)
{
    const auto& names = InvariantChecker::invariantNames();
    ASSERT_GE(names.size(), 9u);
    EXPECT_EQ(names.front(), std::string("mesi-single-owner"));
}

TEST(InvariantChecker, CleanVipsRunHasNoViolations)
{
    Chip chip(checkedConfig(Technique::CbAll));
    loadHandOff(chip);
    chip.run(); // interval + quiesce checks run inside
    EXPECT_TRUE(chip.checkInvariantsNow().empty());
}

TEST(InvariantChecker, CleanMesiRunHasNoViolations)
{
    Chip chip(checkedConfig(Technique::Invalidation));
    idleAll(chip);
    // Shared flag: a spinner in S broken by the writer's invalidation.
    Assembler s;
    const Label spn = s.newLabel();
    s.movImm(1, kFlag);
    s.bind(spn);
    s.ld(2, 1).spin = true;
    s.beqz(2, spn);
    chip.setProgram(1, s.assemble());
    Assembler w;
    w.workImm(4000);
    w.movImm(1, kFlag);
    w.movImm(3, 1);
    w.st(3, 1);
    chip.setProgram(0, w.assemble());
    chip.run();
    EXPECT_TRUE(chip.checkInvariantsNow().empty());
}

TEST(InvariantChecker, CatchesCorruptedCallbackDirectory)
{
    Chip chip(checkedConfig(Technique::CbAll));
    idleAll(chip);
    // One immediate ld_cb creates the entry and consumes core 1's F/E
    // bit, so the injected second read below is forced to block.
    Assembler a;
    a.movImm(1, kFlag);
    a.ldCb(2, 1);
    chip.setProgram(1, a.assemble());
    chip.run();

    // Inject a GetCB from the (now finished) core 1: its CB bit gets
    // set and the request parks — a waiter no live core owns.
    Message msg;
    msg.type = MsgType::GetCB;
    msg.addr = kFlag;
    msg.requester = 1;
    msg.src = 1;
    msg.sync = true;
    vipsBank(chip, AddrLayout::bankOf(kFlag, 4)).handleMessage(msg);

    const auto violations = chip.checkInvariantsNow();
    ASSERT_FALSE(violations.empty());
    bool named = false;
    for (const auto& v : violations)
        named = named || v.find("cb-waiter-live") != std::string::npos;
    EXPECT_TRUE(named) << violations.front();
    // And the leak pass sees the parked waiter that will never drain.
    bool leaked = false;
    for (const auto& v : violations)
        leaked = leaked || v.find("waiter-no-leak") != std::string::npos;
    EXPECT_TRUE(leaked);
}

TEST(InvariantChecker, EnforcePanicsWithEveryViolationListed)
{
    EXPECT_NO_THROW(InvariantChecker::enforce("quiesce", {}));
    try {
        InvariantChecker::enforce(
            "interval", {"[mesi-single-owner] two owners",
                         "[cb-fe-consistent] bad mask"});
        FAIL() << "enforce did not throw";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 protocol invariant violations"),
                  std::string::npos);
        EXPECT_NE(what.find("mesi-single-owner"), std::string::npos);
        EXPECT_NE(what.find("cb-fe-consistent"), std::string::npos);
    }
}

TEST(SweepJobKind, CorruptKindIsAPanicNotAFatal)
{
    SweepJob j;
    j.key = "corrupt";
    j.kind = static_cast<JobKind>(99);
    EXPECT_THROW(j.execute(), PanicError);
}

} // namespace
} // namespace cbsim
