/**
 * @file
 * MESI protocol tests on a full 4-core chip: state transitions,
 * invalidation on write-sharing, local spinning, owner forwarding,
 * atomic mutual exclusion, and writebacks.
 */

#include <gtest/gtest.h>

#include "../support/chip_helpers.hh"

namespace cbsim {
namespace {

constexpr Addr kFlag = 0x10000; // bank 0x10000/64 % 4 = 0
constexpr Addr kData = 0x20040;

struct MesiFixture : ::testing::Test
{
    std::unique_ptr<Chip> chip;

    void
    build(unsigned cores = 4)
    {
        chip = std::make_unique<Chip>(testConfig(Technique::Invalidation,
                                                 cores));
        idleAll(*chip);
    }

    std::uint64_t
    packets(MsgType t) const
    {
        return chip->mesh().packets(t);
    }
};

TEST_F(MesiFixture, FirstReaderGetsExclusive)
{
    build();
    Assembler a;
    a.movImm(1, kData);
    a.ld(2, 1);
    chip->setProgram(0, a.assemble());
    chip->run();
    auto st = mesiL1(*chip, 0).lineState(kData);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(*st, MesiState::E);
}

TEST_F(MesiFixture, SecondReaderMakesBothShared)
{
    build();
    for (CoreId c : {0u, 1u}) {
        Assembler a;
        a.workImm(c * 400); // serialize the reads
        a.movImm(1, kData);
        a.ld(2, 1);
        chip->setProgram(c, a.assemble());
    }
    chip->run();
    EXPECT_EQ(*mesiL1(*chip, 0).lineState(kData), MesiState::S);
    EXPECT_EQ(*mesiL1(*chip, 1).lineState(kData), MesiState::S);
}

TEST_F(MesiFixture, StoreOnExclusiveSilentlyUpgrades)
{
    build();
    Assembler a;
    a.movImm(1, kData);
    a.ld(2, 1);
    a.stImm(5, 1);
    chip->setProgram(0, a.assemble());
    const auto before = packets(MsgType::GetX);
    chip->run();
    EXPECT_EQ(*mesiL1(*chip, 0).lineState(kData), MesiState::M);
    // E->M must not have produced a GetX.
    EXPECT_EQ(packets(MsgType::GetX), before);
    EXPECT_EQ(chip->dataStore().read(kData), 5u);
}

TEST_F(MesiFixture, WriterInvalidatesSharers)
{
    build();
    // Cores 1..3 read the flag; then core 0 writes it.
    for (CoreId c : {1u, 2u, 3u}) {
        Assembler a;
        a.movImm(1, kFlag);
        a.ld(2, 1);
        chip->setProgram(c, a.assemble());
    }
    Assembler w;
    w.workImm(2000); // let the readers cache it first
    w.movImm(1, kFlag);
    w.stImm(1, 1);
    chip->setProgram(0, w.assemble());
    chip->run();

    EXPECT_EQ(*mesiL1(*chip, 0).lineState(kFlag), MesiState::M);
    for (CoreId c : {1u, 2u, 3u})
        EXPECT_FALSE(mesiL1(*chip, c).lineState(kFlag).has_value());
    std::uint64_t invs = 0;
    for (BankId b = 0; b < chip->config().numCores; ++b)
        invs += mesiBank(*chip, b).invsSent();
    EXPECT_GE(invs, 3u);
}

TEST_F(MesiFixture, SpinnerSpinsLocallyUntilInvalidated)
{
    build();
    // Core 1 spins on the flag; core 0 sets it after 20k cycles.
    Assembler s;
    const Label spn = s.newLabel();
    s.movImm(1, kFlag);
    s.bind(spn);
    s.ld(2, 1).sync = true;
    s.beqz(2, spn);
    chip->setProgram(1, s.assemble());

    Assembler w;
    w.workImm(20000);
    w.movImm(1, kFlag);
    w.stImm(1, 1).sync = true;
    chip->setProgram(0, w.assemble());

    auto result = chip->run();
    // The spinning core hit in its L1: sync LLC accesses stay O(1)
    // (a handful of misses), NOT O(spin iterations).
    EXPECT_LT(result.llcSyncAccesses, 12u);
    // ... while the L1 absorbed thousands of spin reads.
    EXPECT_GT(result.l1Accesses, 2000u);
}

TEST_F(MesiFixture, AtomicsAreMutuallyExclusive)
{
    build();
    // All four cores do 50 T&S-guarded increments of a shared counter.
    constexpr int iters = 50;
    for (CoreId c = 0; c < 4; ++c) {
        Assembler a;
        const Label loop = a.newLabel();
        const Label acq = a.newLabel();
        a.movImm(1, kFlag);  // lock
        a.movImm(2, kData);  // counter
        a.movImm(5, 0);      // i
        a.movImm(6, iters);
        a.bind(loop);
        a.bind(acq);
        a.atomic(3, 1, 0, AtomicFunc::TestAndSet, 1, 0, false,
                 WakePolicy::None);
        a.bnez(3, acq);
        a.ld(4, 2);
        a.addImm(4, 4, 1);
        a.st(4, 2);
        a.stImm(0, 1); // release
        a.addImm(5, 5, 1);
        a.bne(5, 6, loop);
        chip->setProgram(c, a.assemble());
    }
    chip->run();
    EXPECT_EQ(chip->dataStore().read(kData), 4u * iters);
}

TEST_F(MesiFixture, OwnerForwardsToReader)
{
    build();
    // Core 0 dirties the line; core 1 then reads it: FwdGetS path.
    Assembler w;
    w.movImm(1, kData);
    w.stImm(7, 1);
    chip->setProgram(0, w.assemble());

    Assembler r;
    r.workImm(2000);
    r.movImm(1, kData);
    r.ld(2, 1);
    chip->setProgram(1, r.assemble());

    chip->run();
    EXPECT_EQ(chip->core(1).reg(2), 7u);
    EXPECT_EQ(*mesiL1(*chip, 0).lineState(kData), MesiState::S);
    EXPECT_EQ(*mesiL1(*chip, 1).lineState(kData), MesiState::S);
    EXPECT_GE(packets(MsgType::FwdGetS), 1u);
}

TEST_F(MesiFixture, OwnerYieldsToWriter)
{
    build();
    Assembler w0;
    w0.movImm(1, kData);
    w0.stImm(1, 1);
    chip->setProgram(0, w0.assemble());

    Assembler w1;
    w1.workImm(2000);
    w1.movImm(1, kData);
    w1.stImm(2, 1);
    chip->setProgram(1, w1.assemble());

    chip->run();
    EXPECT_FALSE(mesiL1(*chip, 0).lineState(kData).has_value());
    EXPECT_EQ(*mesiL1(*chip, 1).lineState(kData), MesiState::M);
    EXPECT_GE(packets(MsgType::FwdGetX), 1u);
    EXPECT_EQ(chip->dataStore().read(kData), 2u);
}

TEST_F(MesiFixture, DirtyEvictionWritesBack)
{
    build();
    // Dirty many lines mapping to the same L1 set to force evictions.
    // L1: 32 KB 4-way -> 128 sets, set stride 128*64 = 8 KB.
    Assembler a;
    for (int i = 0; i < 8; ++i) {
        a.movImm(1, 0x40000 + i * 0x2000);
        a.stImm(i, 1);
    }
    chip->setProgram(0, a.assemble());
    chip->run();
    EXPECT_GE(packets(MsgType::PutM), 4u);
    EXPECT_EQ(mesiL1(*chip, 0).writebacks(), packets(MsgType::PutM));
}

TEST_F(MesiFixture, ValuePropagatesThroughInvalidation)
{
    build();
    // Classic message pattern: reader caches, writer invalidates,
    // reader re-fetches the new value.
    Assembler r;
    const Label spn = r.newLabel();
    r.movImm(1, kFlag);
    r.bind(spn);
    r.ld(2, 1).sync = true;
    r.beqz(2, spn);
    r.movImm(3, kData);
    r.ld(4, 3);
    chip->setProgram(1, r.assemble());

    Assembler w;
    w.movImm(3, kData);
    w.stImm(99, 3);
    w.workImm(5000);
    w.movImm(1, kFlag);
    w.stImm(1, 1).sync = true;
    chip->setProgram(0, w.assemble());

    chip->run();
    EXPECT_EQ(chip->core(1).reg(4), 99u);
}

TEST_F(MesiFixture, SixteenCoreContendedStore)
{
    build(16);
    for (CoreId c = 0; c < 16; ++c) {
        Assembler a;
        a.movImm(1, kFlag);
        a.atomic(2, 1, 0, AtomicFunc::FetchAndAdd, 1, 0, false,
                 WakePolicy::None);
        chip->setProgram(c, a.assemble());
    }
    chip->run();
    EXPECT_EQ(chip->dataStore().read(kFlag), 16u);
}

} // namespace
} // namespace cbsim
