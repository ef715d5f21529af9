/**
 * @file
 * Core interpreter tests against the MagicL1 test double: ALU semantics,
 * branches, loops, memory ops, work timing, fences, Record markers, and
 * back-off interaction with spin-marked loads.
 */

#include <gtest/gtest.h>

#include "../support/magic_l1.hh"
#include "core/core.hh"

namespace cbsim {
namespace {

struct CoreFixture : ::testing::Test
{
    EventQueue eq;
    DataStore data;
    SyncStats syncStats;
    MagicL1 l1{eq, data};
    bool done = false;

    std::unique_ptr<Core>
    makeCore(Program p, BackoffConfig backoff = BackoffConfig::off())
    {
        auto core = std::make_unique<Core>(0, eq, l1, backoff, syncStats,
                                           [this] { done = true; });
        core->setProgram(std::move(p));
        return core;
    }

    void
    runProgram(Core& core)
    {
        core.start();
        eq.run(10'000'000);
        ASSERT_TRUE(done);
    }
};

TEST_F(CoreFixture, AluAndBranches)
{
    Assembler a;
    a.movImm(1, 10);
    a.movImm(2, 32);
    a.add(3, 1, 2);    // r3 = 42
    a.addImm(4, 3, 8); // r4 = 50
    a.sub(5, 4, 1);    // r5 = 40
    a.notOp(6, 5);     // r6 = 0 (logical)
    a.notOp(7, 6);     // r7 = 1
    auto core = makeCore(a.assemble());
    runProgram(*core);
    EXPECT_EQ(core->reg(3), 42u);
    EXPECT_EQ(core->reg(4), 50u);
    EXPECT_EQ(core->reg(5), 40u);
    EXPECT_EQ(core->reg(6), 0u);
    EXPECT_EQ(core->reg(7), 1u);
}

TEST_F(CoreFixture, CountedLoopViaBranch)
{
    Assembler a;
    a.movImm(1, 0);  // counter
    a.movImm(2, 10); // bound
    a.label("loop");
    a.addImm(1, 1, 1);
    a.bne(1, 2, "loop");
    auto core = makeCore(a.assemble());
    runProgram(*core);
    EXPECT_EQ(core->reg(1), 10u);
}

TEST_F(CoreFixture, LoadStoreRoundTrip)
{
    Assembler a;
    a.movImm(1, 0x1000);
    a.stImm(77, 1);
    a.ld(2, 1);
    auto core = makeCore(a.assemble());
    runProgram(*core);
    EXPECT_EQ(core->reg(2), 77u);
    EXPECT_EQ(data.read(0x1000), 77u);
}

TEST_F(CoreFixture, AtomicReturnsOldValue)
{
    data.write(0x2000, 5);
    Assembler a;
    a.movImm(1, 0x2000);
    a.atomic(2, 1, 0, AtomicFunc::FetchAndAdd, 3, 0, false,
             WakePolicy::None);
    auto core = makeCore(a.assemble());
    runProgram(*core);
    EXPECT_EQ(core->reg(2), 5u);
    EXPECT_EQ(data.read(0x2000), 8u);
}

TEST_F(CoreFixture, WorkAdvancesTime)
{
    Assembler a;
    a.workImm(500);
    auto core = makeCore(a.assemble());
    runProgram(*core);
    EXPECT_GE(core->doneTick(), 500u);
    EXPECT_LT(core->doneTick(), 520u);
}

TEST_F(CoreFixture, WorkFromRegister)
{
    Assembler a;
    a.movImm(1, 300);
    a.workReg(1);
    auto core = makeCore(a.assemble());
    runProgram(*core);
    EXPECT_GE(core->doneTick(), 300u);
}

TEST_F(CoreFixture, FencesReachTheL1)
{
    Assembler a;
    a.selfDown();
    a.selfInvl();
    a.selfDown();
    auto core = makeCore(a.assemble());
    runProgram(*core);
    EXPECT_EQ(l1.selfInvls, 1);
    EXPECT_EQ(l1.selfDowns, 2);
}

TEST_F(CoreFixture, RecordSamplesLatency)
{
    Assembler a;
    a.recordStart(SyncKind::Acquire);
    a.workImm(100);
    a.recordEnd(SyncKind::Acquire);
    auto core = makeCore(a.assemble());
    runProgram(*core);
    const auto k = static_cast<std::size_t>(SyncKind::Acquire);
    EXPECT_EQ(syncStats.latency[k].count, 1u);
    EXPECT_GE(syncStats.latency[k].mean(), 100.0);
    EXPECT_LT(syncStats.latency[k].mean(), 110.0);
}

TEST_F(CoreFixture, EffectiveAddressUsesBasePlusOffset)
{
    data.write(0x3010, 11);
    Assembler a;
    a.movImm(1, 0x3000);
    a.ld(2, 1, 0x10);
    auto core = makeCore(a.assemble());
    runProgram(*core);
    EXPECT_EQ(core->reg(2), 11u);
}

TEST_F(CoreFixture, SpinLoopWithBackoffDelaysRetries)
{
    // Spin on a flag that never changes for a while: back-off must
    // stretch the retry interval. The flag starts 0 and is set by a
    // scheduled event; the core then exits the loop.
    data.write(0x4000, 0);
    Assembler a;
    a.movImm(1, 0x4000);
    a.label("spn");
    a.ldThrough(2, 1).spin = true;
    a.beqz(2, "spn");
    auto core = makeCore(a.assemble(), BackoffConfig::capped(5, 16));
    eq.schedule(3000, [&] { data.write(0x4000, 1); });
    core->start();
    eq.run(10'000'000);
    ASSERT_TRUE(done);
    // Without back-off the loop iterates every ~3 cycles (1000 retries);
    // with cap-5 back-off (ceiling 512) it must be far fewer.
    const std::size_t retries = l1.ops.size();
    EXPECT_LT(retries, 60u);
    EXPECT_GT(retries, 5u);
}

TEST_F(CoreFixture, NoBackoffSpinsHot)
{
    data.write(0x4000, 0);
    Assembler a;
    a.movImm(1, 0x4000);
    a.label("spn");
    a.ldThrough(2, 1).spin = true;
    a.beqz(2, "spn");
    auto core = makeCore(a.assemble(), BackoffConfig::capped(0, 16));
    eq.schedule(3000, [&] { data.write(0x4000, 1); });
    core->start();
    eq.run(10'000'000);
    ASSERT_TRUE(done);
    EXPECT_GT(l1.ops.size(), 400u);
}

TEST_F(CoreFixture, RunawayAluLoopPanics)
{
    Assembler a;
    a.label("forever");
    a.movImm(1, 1);
    a.jump("forever");
    auto core = makeCore(a.assemble());
    core->start();
    EXPECT_THROW(eq.run(), PanicError);
}

TEST_F(CoreFixture, StartWithoutProgramPanics)
{
    auto core = std::make_unique<Core>(0, eq, l1, BackoffConfig::off(),
                                       syncStats, [] {});
    EXPECT_THROW(core->start(), PanicError);
}

} // namespace
} // namespace cbsim
