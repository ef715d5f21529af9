/**
 * @file
 * Tests for metric extraction (RunResult) and chip configuration.
 */

#include <gtest/gtest.h>

#include "system/chip_config.hh"
#include "system/run_result.hh"

namespace cbsim {
namespace {

TEST(RunResultSums, SumWhereMatchesPrefixAndSuffix)
{
    StatsRegistry stats;
    Counter a, b, c, d;
    stats.add("llc.0.accesses", a);
    stats.add("llc.1.accesses", b);
    stats.add("llc.0.sync_accesses", c);
    stats.add("l1.0.accesses", d);
    a.inc(5);
    b.inc(7);
    c.inc(100);
    d.inc(1000);
    // Strict suffix match: "sync_accesses" must NOT count as
    // ".accesses" (they are separate metrics).
    EXPECT_EQ(stats.sumWhere("llc.", ".accesses"), 12u);
    EXPECT_EQ(stats.sumWhere("llc.", ".sync_accesses"), 100u);
    EXPECT_EQ(stats.sumWhere("l1.", ".accesses"), 1000u);
    EXPECT_EQ(stats.sumWhere("zz.", ".accesses"), 0u);
}

TEST(ChipConfig, Table2Defaults)
{
    ChipConfig cfg;
    EXPECT_EQ(cfg.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l1.ways, 4u);
    EXPECT_EQ(cfg.llcBank.sizeBytes, 256u * 1024);
    EXPECT_EQ(cfg.llcBank.ways, 16u);
    EXPECT_EQ(cfg.llc.tagLatency, 6u);
    EXPECT_EQ(cfg.llc.dataLatency, 12u);
    EXPECT_EQ(cfg.memLatency, 160u);
    EXPECT_EQ(cfg.cbEntriesPerBank, 4u);
    EXPECT_EQ(cfg.noc.flitBytes, 16u);
    EXPECT_EQ(cfg.noc.switchLatency, 6u);
    EXPECT_EQ(cfg.noc.width, 8u);
    EXPECT_EQ(cfg.noc.height, 8u);
}

TEST(ChipConfig, TechniqueMapping)
{
    auto inval = ChipConfig::forTechnique(Technique::Invalidation, 64);
    EXPECT_EQ(inval.protocol, ProtocolKind::Mesi);
    EXPECT_FALSE(inval.backoff.enabled);
    EXPECT_GT(inval.backoff.pauseDelay, 0u);

    auto b10 = ChipConfig::forTechnique(Technique::BackOff10, 64);
    EXPECT_EQ(b10.protocol, ProtocolKind::Vips);
    EXPECT_TRUE(b10.backoff.enabled);
    EXPECT_EQ(b10.backoff.maxExponent, 10u);

    auto b0 = ChipConfig::forTechnique(Technique::BackOff0, 64);
    EXPECT_FALSE(b0.backoff.enabled);

    auto cb = ChipConfig::forTechnique(Technique::CbOne, 64);
    EXPECT_EQ(cb.protocol, ProtocolKind::Vips);
    EXPECT_FALSE(cb.backoff.enabled);
}

TEST(ChipConfig, MeshSizedToCores)
{
    auto c16 = ChipConfig::forTechnique(Technique::CbAll, 16);
    EXPECT_EQ(c16.noc.width, 4u);
    EXPECT_EQ(c16.noc.height, 4u);
    c16.validate();
    EXPECT_THROW(ChipConfig::forTechnique(Technique::CbAll, 12),
                 FatalError);
}

TEST(ChipConfig, ValidationCatchesBadConfigs)
{
    ChipConfig cfg = ChipConfig::forTechnique(Technique::CbAll, 16);
    cfg.numCores = 65;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = ChipConfig::forTechnique(Technique::CbAll, 16);
    cfg.cbEntriesPerBank = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = ChipConfig::forTechnique(Technique::CbAll, 16);
    cfg.noc.width = 3;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(ChipConfig, TechniqueNamesMatchThePaper)
{
    EXPECT_STREQ(techniqueName(Technique::Invalidation), "Invalidation");
    EXPECT_STREQ(techniqueName(Technique::BackOff10), "BackOff-10");
    EXPECT_STREQ(techniqueName(Technique::CbAll), "CB-All");
    EXPECT_STREQ(techniqueName(Technique::CbOne), "CB-One");
    EXPECT_EQ(std::size(allTechniques), 7u);
}

} // namespace
} // namespace cbsim
