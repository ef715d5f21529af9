/**
 * @file
 * Functional store tests: word granularity, zero-fill, overwrite.
 */

#include <gtest/gtest.h>

#include "mem/data_store.hh"
#include "mem/memory_model.hh"

namespace cbsim {
namespace {

TEST(DataStore, UnwrittenReadsZero)
{
    DataStore d;
    EXPECT_EQ(d.read(0x1234), 0u);
}

TEST(DataStore, WriteThenRead)
{
    DataStore d;
    d.write(0x1000, 42);
    EXPECT_EQ(d.read(0x1000), 42u);
    d.write(0x1000, 7);
    EXPECT_EQ(d.read(0x1000), 7u);
}

TEST(DataStore, WordGranularAliasing)
{
    DataStore d;
    d.write(0x1004, 99); // inside word 0x1000
    EXPECT_EQ(d.read(0x1000), 99u);
    EXPECT_EQ(d.read(0x1007), 99u);
    EXPECT_EQ(d.read(0x1008), 0u); // next word untouched
}

TEST(DataStore, FootprintCountsDistinctWords)
{
    DataStore d;
    d.write(0x0, 1);
    d.write(0x8, 2);
    d.write(0x4, 3); // aliases word 0x0
    EXPECT_EQ(d.footprintWords(), 2u);
}

TEST(MemoryModel, ReadCompletesAfterLatency)
{
    EventQueue eq;
    MemoryModel mem(eq, 160);
    Tick done_at = 0;
    eq.schedule(10, [&] { mem.read(0x1000, [&] { done_at = eq.now(); }); });
    eq.run();
    EXPECT_EQ(done_at, 170u);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST(MemoryModel, WritesAreCounted)
{
    EventQueue eq;
    MemoryModel mem(eq, 160);
    mem.write(0x40);
    mem.write(0x80);
    EXPECT_EQ(mem.writes(), 2u);
}

} // namespace
} // namespace cbsim
