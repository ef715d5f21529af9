/**
 * @file
 * Tests for metric extraction (RunResult) and chip configuration.
 */

#include <gtest/gtest.h>

#include <utility>

#include "../support/chip_helpers.hh"
#include "system/chip_config.hh"
#include "system/run_result.hh"
#include "workload/program_gen.hh"
#include "workload/suite.hh"

namespace cbsim {
namespace {

/**
 * Chip builds RunResult by summing the components' counters: every
 * total matches a sum taken by hand over the typed controllers, sync
 * accesses are a subset of (not added to) LLC accesses, and each
 * protocol leaves the other protocol's totals at zero.
 */
TEST(RunResultSums, ChipTotalsSumTheComponentCounters)
{
    constexpr unsigned cores = 4;
    for (const auto& [technique, flavor] :
         {std::pair{Technique::Invalidation, SyncFlavor::Mesi},
          std::pair{Technique::CbOne, SyncFlavor::CbOne}}) {
        SCOPED_TRACE(techniqueName(technique));
        auto w = buildWorkload(scaled(benchmark("canneal"), 0.05), cores,
                               flavor, LockAlgo::Clh,
                               BarrierAlgo::TreeSenseReversing);
        Chip chip(testConfig(technique, cores));
        w.layout.apply(chip.dataStore());
        for (CoreId c = 0; c < cores; ++c)
            chip.setProgram(c, w.programs[c]);
        const RunResult r = chip.run();

        const bool mesi = technique == Technique::Invalidation;
        RunResult sum;
        for (CoreId c = 0; c < cores; ++c) {
            sum.instructions += chip.core(c).instructionsRetired();
            sum.stallCycles += chip.core(c).stallCycles();
            sum.cbBlockedCycles += chip.core(c).cbBlockedCycles();
            if (mesi) {
                sum.l1Accesses += mesiL1(chip, c).accesses();
                sum.llcAccesses += mesiBank(chip, c).accesses();
                sum.llcSyncAccesses += mesiBank(chip, c).syncAccesses();
                sum.invalidationsSent += mesiBank(chip, c).invsSent();
            } else {
                const VipsLlcBank& bank = vipsBank(chip, c);
                sum.l1Accesses += vipsL1(chip, c).accesses();
                sum.llcAccesses += bank.accesses();
                sum.llcSyncAccesses += bank.syncAccesses();
                sum.cbdirAccesses += bank.cbdirAccesses();
                sum.cbWakeups += bank.wakesSent();
                sum.cbdirEvictions += bank.directory().evictions();
            }
        }
        EXPECT_EQ(r.instructions, sum.instructions);
        EXPECT_EQ(r.stallCycles, sum.stallCycles);
        EXPECT_EQ(r.cbBlockedCycles, sum.cbBlockedCycles);
        EXPECT_EQ(r.l1Accesses, sum.l1Accesses);
        EXPECT_EQ(r.llcAccesses, sum.llcAccesses);
        EXPECT_EQ(r.llcSyncAccesses, sum.llcSyncAccesses);
        EXPECT_EQ(r.invalidationsSent, sum.invalidationsSent);
        EXPECT_EQ(r.cbdirAccesses, sum.cbdirAccesses);
        EXPECT_EQ(r.cbWakeups, sum.cbWakeups);
        EXPECT_EQ(r.cbdirEvictions, sum.cbdirEvictions);
        EXPECT_EQ(r.flitHops, chip.mesh().flitHops());
        EXPECT_EQ(r.packets, chip.mesh().packets());
        EXPECT_EQ(r.memReads, chip.memory().reads());

        EXPECT_GT(r.llcSyncAccesses, 0u);
        EXPECT_LT(r.llcSyncAccesses, r.llcAccesses);
        if (mesi) {
            EXPECT_GT(r.invalidationsSent, 0u);
            EXPECT_EQ(r.cbdirAccesses, 0u);
            EXPECT_EQ(r.cbWakeups, 0u);
        } else {
            EXPECT_EQ(r.invalidationsSent, 0u);
            EXPECT_GT(r.cbdirAccesses, 0u);
            EXPECT_GT(r.cbWakeups, 0u);
        }
    }
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
