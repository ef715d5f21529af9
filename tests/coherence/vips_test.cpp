/**
 * @file
 * VIPS-M + callback protocol tests on a full 4-core chip: through-ops,
 * self-invalidation/downgrade fences, page classification, blocking
 * callback reads and wake-ups, st_cb1/st_cb0 semantics, RMW held in the
 * callback directory, premature wake-up (Fig. 5), directory-eviction
 * liveness, and the 3-message value hand-off.
 */

#include <gtest/gtest.h>

#include "../support/chip_helpers.hh"

namespace cbsim {
namespace {

constexpr Addr kFlag = 0x10000;
constexpr Addr kData = 0x20040;

struct VipsFixture : ::testing::Test
{
    std::unique_ptr<Chip> chip;

    void
    build(Technique t = Technique::CbAll, unsigned cores = 4,
          unsigned cb_entries = 4)
    {
        ChipConfig cfg = testConfig(t, cores);
        cfg.cbEntriesPerBank = cb_entries;
        chip = std::make_unique<Chip>(cfg);
        idleAll(*chip);
    }

    std::uint64_t
    llcSync() const
    {
        std::uint64_t n = 0;
        for (BankId b = 0; b < chip->config().numCores; ++b)
            n += vipsBank(*chip, b).syncAccesses();
        return n;
    }

    std::uint64_t
    packets(MsgType t) const
    {
        return chip->mesh().packets(t);
    }
};

TEST_F(VipsFixture, ThroughOpsBypassTheL1)
{
    build();
    Assembler a;
    a.movImm(1, kFlag);
    a.stThroughImm(3, 1);
    a.ldThrough(2, 1);
    chip->setProgram(0, a.assemble());
    chip->run();
    EXPECT_EQ(chip->core(0).reg(2), 3u);
    EXPECT_FALSE(vipsL1(*chip, 0).cached(kFlag));
    EXPECT_EQ(llcSync(), 2u);
}

TEST_F(VipsFixture, LlcSpinningCostsOneAccessPerIteration)
{
    build(Technique::BackOff0);
    Assembler s;
    s.movImm(1, kFlag);
    s.label("spn");
    s.ldThrough(2, 1).spin = true;
    s.beqz(2, "spn");
    chip->setProgram(1, s.assemble());

    Assembler w;
    w.workImm(8000);
    w.movImm(1, kFlag);
    w.stThroughImm(1, 1);
    chip->setProgram(0, w.assemble());

    chip->run();
    // Every spin iteration reached the LLC (the paper's motivation).
    EXPECT_GT(llcSync(), 40u);
}

TEST_F(VipsFixture, CallbackBlocksInsteadOfSpinning)
{
    build(Technique::CbAll);
    // The paper's callback spin idiom: guard ld_through then ld_cb loop.
    Assembler s;
    s.movImm(1, kFlag);
    s.ldThrough(2, 1);
    s.bnez(2, "out");
    s.label("spn");
    s.ldCb(2, 1);
    s.beqz(2, "spn");
    s.label("out");
    chip->setProgram(1, s.assemble());

    Assembler w;
    w.workImm(8000);
    w.movImm(1, kFlag);
    w.stThroughImm(1, 1);
    chip->setProgram(0, w.assemble());

    auto result = chip->run();
    EXPECT_EQ(chip->core(1).reg(2), 1u);
    // Blocked in the directory: only a handful of sync LLC accesses.
    EXPECT_LT(llcSync(), 8u);
    EXPECT_GE(result.cbWakeups, 1u);
    EXPECT_EQ(packets(MsgType::WakeUp), 1u);
}

TEST_F(VipsFixture, ThreeMessageValueHandOff)
{
    build(Technique::CbAll);
    // With the reader already blocked, communicating the value takes
    // exactly {GetCB, write, wake} = 3 messages (§2.1). The writer's
    // completion Ack is the 4th on-chip message.
    Assembler s;
    s.movImm(1, kFlag);
    s.label("spn");
    s.ldCb(2, 1);
    s.beqz(2, "spn");
    chip->setProgram(1, s.assemble());

    Assembler w;
    w.workImm(5000);
    w.movImm(1, kFlag);
    w.stThroughImm(1, 1);
    chip->setProgram(0, w.assemble());

    chip->run();
    // The first ld_cb consumes the fresh-full entry (1 GetCB +
    // 1 DataWord), the second blocks (1 GetCB) and gets 1 WakeUp.
    EXPECT_EQ(packets(MsgType::GetCB), 2u);
    EXPECT_EQ(packets(MsgType::WakeUp), 1u);
    EXPECT_EQ(packets(MsgType::StThrough), 1u);
    EXPECT_EQ(packets(MsgType::Inv), 0u);
}

TEST_F(VipsFixture, SelfDowngradeFlushesDirtyWords)
{
    build();
    Assembler a;
    a.movImm(1, kData);
    a.stImm(11, 1, 0);
    a.stImm(22, 1, 8);
    a.selfDown();
    chip->setProgram(0, a.assemble());
    chip->run();
    EXPECT_EQ(vipsL1(*chip, 0).wtFlushes(), 1u);
    EXPECT_EQ(packets(MsgType::WtFlush), 1u);
    EXPECT_EQ(vipsL1(*chip, 0).dirtyMask(kData), 0u);
    EXPECT_TRUE(vipsL1(*chip, 0).cached(kData)); // downgrade keeps data
}

TEST_F(VipsFixture, SelfInvalidateDiscardsSharedLines)
{
    build();
    // Two cores touch the page so it classifies Shared; then core 0
    // self-invalidates and must lose the line.
    Assembler a0;
    a0.movImm(1, kData);
    a0.ld(2, 1);
    a0.workImm(4000);
    a0.selfInvl();
    chip->setProgram(0, a0.assemble());

    Assembler a1;
    a1.workImm(1000);
    a1.movImm(1, kData + 8);
    a1.ld(2, 1);
    chip->setProgram(1, a1.assemble());

    chip->run();
    EXPECT_FALSE(vipsL1(*chip, 0).cached(kData));
}

TEST_F(VipsFixture, PrivatePagesSurviveSelfInvalidation)
{
    build();
    Assembler a;
    a.movImm(1, 0x90000); // only core 0 ever touches this page
    a.ld(2, 1);
    a.selfInvl();
    chip->setProgram(0, a.assemble());
    chip->run();
    EXPECT_TRUE(vipsL1(*chip, 0).cached(0x90000));
}

TEST_F(VipsFixture, StCb1WakesExactlyOneWaiter)
{
    build(Technique::CbOne);
    // Put the word into One mode and empty: writer0 takes the "lock".
    // Cores 1..3 block on ld_cb; one st_cb1 wakes exactly one.
    for (CoreId c : {1u, 2u, 3u}) {
        Assembler s;
        s.movImm(1, kFlag);
        s.label("spn");
        s.ldCb(2, 1);
        s.beqz(2, "spn");
        chip->setProgram(c, s.assemble());
    }
    Assembler w;
    w.movImm(1, kFlag);
    w.ldThrough(2, 1); // consume the fresh-full state
    w.workImm(6000);   // let all three waiters block
    w.stCb1Imm(1, 1);  // wake ONE
    w.workImm(6000);
    w.stThroughImm(1, 1); // wake the rest so the test terminates
    chip->setProgram(0, w.assemble());

    chip->run();
    EXPECT_EQ(packets(MsgType::StCb1), 1u);
    EXPECT_EQ(packets(MsgType::WakeUp), 3u);
}

TEST_F(VipsFixture, RmwHeldInDirectoryReExecutesOnWake)
{
    build(Technique::CbOne);
    // Fig. 5/6 scenario: core 1's callback T&S blocks; core 0 holds the
    // "lock" and releases with st_cb1; core 1's RMW re-executes at the
    // LLC and succeeds without re-requesting.
    Assembler w;
    w.movImm(1, kFlag);
    w.atomic(2, 1, 0, AtomicFunc::TestAndSet, 1, 0, false,
             WakePolicy::Zero);
    w.workImm(6000);
    w.stCb1Imm(0, 1); // release
    chip->setProgram(0, w.assemble());

    Assembler s;
    s.workImm(1000);
    s.movImm(1, kFlag);
    s.label("spn");
    s.atomic(2, 1, 0, AtomicFunc::TestAndSet, 1, 0, true,
             WakePolicy::Zero);
    s.bnez(2, "spn");
    chip->setProgram(1, s.assemble());

    chip->run();
    // Core 1 took the lock after the wake; the lock word reads taken.
    EXPECT_EQ(chip->dataStore().read(kFlag), 1u);
    // Exactly one blocked atomic request was sent; the successful retry
    // happened inside the bank (no second AtomicReq from core 1).
    EXPECT_EQ(packets(MsgType::AtomicReq), 3u);
}

TEST_F(VipsFixture, PrematureWakeFailsAndReblocks)
{
    build(Technique::CbAll);
    // Callback-ALL with a waking T&S (Fig. 9 left / Fig. 5): when the
    // holder releases with st_through, all waiters wake, exactly one
    // wins the re-executed T&S, and the others re-block. A second
    // release lets the next one through, etc. Termination proves
    // correctness; the guard counter proves mutual exclusion.
    constexpr int iters = 8;
    for (CoreId c = 0; c < 4; ++c) {
        Assembler a;
        a.movImm(1, kFlag);
        a.movImm(2, kData);
        a.movImm(5, 0);
        a.movImm(6, iters);
        a.label("loop");
        a.atomic(3, 1, 0, AtomicFunc::TestAndSet, 1, 0, false,
                 WakePolicy::All);
        a.beqz(3, "cs");
        a.label("spn");
        a.atomic(3, 1, 0, AtomicFunc::TestAndSet, 1, 0, true,
                 WakePolicy::All);
        a.bnez(3, "spn");
        a.label("cs");
        a.selfInvl();
        a.ld(4, 2);
        a.addImm(4, 4, 1);
        a.st(4, 2);
        a.selfDown();
        a.stThroughImm(0, 1);
        a.addImm(5, 5, 1);
        a.bne(5, 6, "loop");
        chip->setProgram(c, a.assemble());
    }
    chip->run();
    EXPECT_EQ(chip->dataStore().read(kData), 4u * iters);
}

TEST_F(VipsFixture, DirectoryEvictionPreservesLiveness)
{
    // One entry per bank and several distinct spin words on the same
    // bank: allocations keep evicting each other's entries; evicted
    // waiters are satisfied with the current value, re-check, and
    // re-block. All spinners must still terminate.
    build(Technique::CbAll, 4, /*cb_entries=*/1);
    // Words on bank 0: line numbers divisible by 4.
    const Addr w0 = 0x40000, w1 = 0x40100, w2 = 0x40200;
    const Addr words[3] = {w0, w1, w2};
    for (CoreId c : {1u, 2u, 3u}) {
        Assembler s;
        s.movImm(1, words[c - 1]);
        s.label("try");
        s.ldThrough(2, 1);
        s.bnez(2, "out");
        s.label("spn");
        s.ldCb(2, 1);
        s.beqz(2, "spn");
        s.label("out");
        chip->setProgram(c, s.assemble());
    }
    Assembler w;
    w.workImm(10000);
    for (const Addr word : words) {
        w.movImm(1, word);
        w.stThroughImm(1, 1);
    }
    chip->setProgram(0, w.assemble());
    chip->run();
    for (CoreId c : {1u, 2u, 3u})
        EXPECT_EQ(chip->core(c).reg(2), 1u);
    // With one entry and three words there must have been evictions.
    std::uint64_t evictions = 0;
    for (BankId b = 0; b < chip->config().numCores; ++b)
        evictions += chip->callbackDirectory(b).evictions();
    EXPECT_GE(evictions, 1u);
}

TEST_F(VipsFixture, PageTransitionFlushesPreviousOwner)
{
    build();
    // Core 0 dirties a page it privately owns; core 1's later access
    // promotes the page to Shared, which must flush+invalidate core 0's
    // lines of that page.
    Assembler a0;
    a0.movImm(1, 0xA0000);
    a0.stImm(5, 1);
    a0.workImm(6000);
    chip->setProgram(0, a0.assemble());

    Assembler a1;
    a1.workImm(2000);
    a1.movImm(1, 0xA0040); // same page, different line
    a1.ld(2, 1);
    chip->setProgram(1, a1.assemble());

    chip->run();
    EXPECT_FALSE(vipsL1(*chip, 0).cached(0xA0000));
    EXPECT_EQ(chip->classifier().transitions(), 1u);
    EXPECT_GE(vipsL1(*chip, 0).wtFlushes(), 1u);
}

TEST_F(VipsFixture, GuardLdThroughPreventsBackToBackSpinDeadlock)
{
    build(Technique::CbAll);
    // Fig. 7: two consecutive spin loops on the same flag. The second
    // loop's guard ld_through must return the already-present value
    // instead of blocking forever.
    Assembler s;
    s.movImm(1, kFlag);
    // Loop 1 (guard + ld_cb).
    s.ldThrough(2, 1);
    s.bnez(2, "l2");
    s.label("spn1");
    s.ldCb(2, 1);
    s.beqz(2, "spn1");
    // Loop 2 (guard + ld_cb) on the SAME flag value.
    s.label("l2");
    s.ldThrough(2, 1);
    s.bnez(2, "out");
    s.label("spn2");
    s.ldCb(2, 1);
    s.beqz(2, "spn2");
    s.label("out");
    chip->setProgram(1, s.assemble());

    Assembler w;
    w.workImm(4000);
    w.movImm(1, kFlag);
    w.stThroughImm(1, 1);
    chip->setProgram(0, w.assemble());

    chip->run(); // termination IS the assertion (deadlock would trip
                 // the tick guard)
    EXPECT_EQ(chip->core(1).reg(2), 1u);
}

TEST_F(VipsFixture, AtomicsAtLlcAreMutuallyExclusive)
{
    build(Technique::BackOff10, 16);
    for (CoreId c = 0; c < 16; ++c) {
        Assembler a;
        a.movImm(1, kFlag);
        a.atomic(2, 1, 0, AtomicFunc::FetchAndAdd, 1, 0, false,
                 WakePolicy::All);
        chip->setProgram(c, a.assemble());
    }
    chip->run();
    EXPECT_EQ(chip->dataStore().read(kFlag), 16u);
}

} // namespace
} // namespace cbsim
