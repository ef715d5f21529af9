/**
 * @file
 * Assembler tests: label resolution (forward and backward), emitted
 * instruction fields, and failure modes.
 */

#include <gtest/gtest.h>

#include <limits>

#include "isa/assembler.hh"
#include "sync/layout.hh"

namespace cbsim {
namespace {

TEST(Assembler, ResolvesBackwardLabels)
{
    Assembler a;
    const Label top = a.newLabel();
    a.bind(top);
    a.movImm(1, 5);
    a.bnez(1, top);
    Program p = a.assemble();
    EXPECT_EQ(p.at(1).imm, 0u);
}

TEST(Assembler, ResolvesForwardLabels)
{
    Assembler a;
    const Label out = a.newLabel();
    a.beqz(1, out);
    a.movImm(2, 7);
    a.bind(out);
    a.done();
    Program p = a.assemble();
    EXPECT_EQ(p.at(0).imm, 2u);
}

TEST(Assembler, UndefinedLabelIsFatal)
{
    Assembler a;
    const Label nowhere = a.newLabel();
    a.jump(nowhere);
    EXPECT_THROW(a.assemble(), FatalError);
}

TEST(Assembler, DuplicateLabelIsFatal)
{
    Assembler a;
    const Label x = a.newLabel();
    a.bind(x);
    a.movImm(0, 0);
    EXPECT_THROW(a.bind(x), FatalError);
}

TEST(Assembler, AppendsDoneIfMissing)
{
    Assembler a;
    a.movImm(1, 1);
    Program p = a.assemble();
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p.at(1).op, Opcode::Done);
}

TEST(Assembler, EmptyProgramGetsDone)
{
    Assembler a;
    Program p = a.assemble();
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p.at(0).op, Opcode::Done);
}

TEST(Assembler, MemoryOperandsEncode)
{
    Assembler a;
    a.ld(3, 4, 16);
    a.stImm(99, 5, -8);
    Program p = a.assemble();
    EXPECT_EQ(p.at(0).op, Opcode::Ld);
    EXPECT_EQ(p.at(0).rd, 3);
    EXPECT_EQ(p.at(0).addrReg, 4);
    EXPECT_EQ(p.at(0).offset, 16);
    EXPECT_EQ(p.at(1).op, Opcode::St);
    EXPECT_TRUE(p.at(1).useImm);
    EXPECT_EQ(p.at(1).imm, 99u);
    EXPECT_EQ(p.at(1).offset, -8);
}

TEST(Assembler, OffsetOutsideInt32IsFatal)
{
    Assembler a;
    a.ld(1, 2, std::numeric_limits<std::int32_t>::min());
    a.st(1, 2, std::numeric_limits<std::int32_t>::max());
    EXPECT_THROW(a.ld(1, 2, std::int64_t{1} << 31), FatalError);
    EXPECT_THROW(a.stImm(0, 2, -(std::int64_t{1} << 31) - 1), FatalError);
    EXPECT_THROW(a.ldCb(1, 2, std::int64_t{1} << 40), FatalError);
    Program p = a.assemble();
    EXPECT_EQ(p.at(0).offset, std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(p.at(1).offset, std::numeric_limits<std::int32_t>::max());
}

TEST(Assembler, RacyOpsAreSyncMarkedByDefault)
{
    Assembler a;
    a.ldThrough(1, 2);
    a.ldCb(1, 2);
    a.stThroughImm(0, 2);
    a.stCb1Imm(0, 2);
    a.stCb0Imm(0, 2);
    a.atomic(1, 2, 0, AtomicFunc::TestAndSet, 1, 0, false,
             WakePolicy::Zero);
    Program p = a.assemble();
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_TRUE(p.at(i).sync) << i;
}

TEST(Assembler, DrfOpsAreNotSyncMarked)
{
    Assembler a;
    a.ld(1, 2);
    a.stImm(0, 2);
    Program p = a.assemble();
    EXPECT_FALSE(p.at(0).sync);
    EXPECT_FALSE(p.at(1).sync);
}

TEST(Assembler, AtomicFieldsEncode)
{
    Assembler a;
    a.atomic(7, 8, 0, AtomicFunc::TestAndSet, 1, 0, true,
             WakePolicy::Zero);
    a.atomicReg(6, 8, 0, AtomicFunc::FetchAndStore, 5, 0, false,
                WakePolicy::All);
    Program p = a.assemble();
    EXPECT_EQ(p.at(0).func, AtomicFunc::TestAndSet);
    EXPECT_TRUE(p.at(0).ldCb);
    EXPECT_EQ(p.at(0).wake, WakePolicy::Zero);
    EXPECT_TRUE(p.at(0).useImm);
    EXPECT_EQ(p.at(1).func, AtomicFunc::FetchAndStore);
    EXPECT_FALSE(p.at(1).useImm);
    EXPECT_EQ(p.at(1).rs1, 5);
}

TEST(Assembler, SpinFlagIsSettable)
{
    Assembler a;
    a.ldThrough(1, 2).spin = true;
    Program p = a.assemble();
    EXPECT_TRUE(p.at(0).spin);
}

TEST(Assembler, ListingShowsOpcodes)
{
    Assembler a;
    a.movImm(1, 7);
    a.ldCb(2, 1);
    Program p = a.assemble();
    const auto text = p.listing();
    EXPECT_NE(text.find("movi"), std::string::npos);
    EXPECT_NE(text.find("ld_cb"), std::string::npos);
}

TEST(Assembler, UniqueLabelNamesTheNextInstruction)
{
    // Each label is its own handle, bound to the next instruction's
    // index; labels made in a row never collide.
    Assembler a;
    const Label spn = a.newLabel();
    const Label out = a.newLabel();
    a.bind(spn);
    a.movImm(1, 1);
    a.movImm(2, 2);
    a.bind(out);
    a.jump(out);
    a.jump(spn);
    Program p = a.assemble();
    EXPECT_EQ(p.at(2).imm, 2u);
    EXPECT_EQ(p.at(3).imm, 0u);
}

TEST(Assembler, DataSymbolFirstBindingWins)
{
    // Line names live in the SyncLayout; an address keeps its first.
    SyncLayout layout;
    EXPECT_TRUE(layout.lineNames().empty());
    layout.nameLine(0x40, "first");
    layout.nameLine(0x40, "second");
    ASSERT_EQ(layout.lineNames().size(), 1u);
    EXPECT_EQ(layout.lineNames().at(0x40), "first");
}

TEST(Program, CopySharesInstructionStorage)
{
    Assembler a;
    a.movImm(1, 7);
    const Program p = a.assemble();
    const Program q = p;
    EXPECT_EQ(&q.at(0), &p.at(0));
    EXPECT_EQ(q.size(), p.size());
}

TEST(Program, DefaultIsEmpty)
{
    const Program p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
}

TEST(AtomicEval, TestAndSet)
{
    auto r = evalAtomic(AtomicFunc::TestAndSet, 0, 1, 0);
    EXPECT_TRUE(r.doWrite);
    EXPECT_EQ(r.newValue, 1u);
    r = evalAtomic(AtomicFunc::TestAndSet, 1, 1, 0);
    EXPECT_FALSE(r.doWrite);
}

TEST(AtomicEval, FetchAndStoreAlwaysWrites)
{
    auto r = evalAtomic(AtomicFunc::FetchAndStore, 123, 456, 0);
    EXPECT_TRUE(r.doWrite);
    EXPECT_EQ(r.newValue, 456u);
}

TEST(AtomicEval, FetchAndAdd)
{
    auto r = evalAtomic(AtomicFunc::FetchAndAdd, 10, 5, 0);
    EXPECT_TRUE(r.doWrite);
    EXPECT_EQ(r.newValue, 15u);
    // Decrement via two's-complement operand.
    r = evalAtomic(AtomicFunc::FetchAndAdd, 10, static_cast<Word>(-1), 0);
    EXPECT_EQ(r.newValue, 9u);
}

TEST(AtomicEval, TestAndDec)
{
    auto r = evalAtomic(AtomicFunc::TestAndDec, 3, 0, 0);
    EXPECT_TRUE(r.doWrite);
    EXPECT_EQ(r.newValue, 2u);
    r = evalAtomic(AtomicFunc::TestAndDec, 0, 0, 0);
    EXPECT_FALSE(r.doWrite);
}

} // namespace
} // namespace cbsim
