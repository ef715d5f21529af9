/**
 * @file
 * Stress and regression tests for the protocol race conditions found
 * during bring-up (see DESIGN.md):
 *
 *  - IS_D race: an Inv overtaking an in-flight GetS fill left a stale
 *    S copy the directory no longer tracked, silently missing wake-ups.
 *  - Stale-owner race: a FwdGetS/FwdGetX overtaking the owner's own
 *    Data response made two cores believe they owned the line.
 *
 * Both manifested as spin-watch liveness timeouts (a parked spinner
 * whose wake-up never arrives). These tests run sync-dense workloads
 * and assert zero timeouts, plus functional invariants.
 */

#include <gtest/gtest.h>

#include "../support/chip_helpers.hh"
#include "../support/swmr_checker.hh"
#include "harness/experiment.hh"

namespace cbsim {
namespace {

std::uint64_t
watchTimeouts(Chip& chip)
{
    std::uint64_t n = 0;
    for (CoreId c = 0; c < chip.config().numCores; ++c)
        n += mesiL1(chip, c).spinWatchTimeouts();
    return n;
}

/** Run a profile on MESI and return (chip stats checked inline). */
void
runMesiAndCheck(const Profile& p, unsigned cores)
{
    ChipConfig cfg = ChipConfig::forTechnique(Technique::Invalidation,
                                              cores);
    auto w = buildWorkload(p, cores, SyncFlavor::Mesi, LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    Chip chip(cfg);
    w.layout.apply(chip.dataStore());
    for (CoreId t = 0; t < cores; ++t)
        chip.setProgram(t, w.programs[t]);
    chip.run();
    // The spin watch must always be woken by a real invalidation: a
    // timeout means a protocol race dropped a wake-up.
    EXPECT_EQ(watchTimeouts(chip), 0u) << p.name;
    for (std::size_t l = 0; l < w.guardWords.size(); ++l) {
        EXPECT_EQ(chip.dataStore().read(w.guardWords[l]),
                  w.expectedGuardCounts[l])
            << p.name << " lock " << l;
    }
}

TEST(MesiRaceRegression, SyncDenseWorkloadsNeverTimeOut)
{
    // canneal (fine-grain CLH locks) and streamcluster (barrier storm)
    // reproduced the IS_D and stale-owner races reliably before the
    // fixes; run them scaled-down but sync-dense.
    for (const char* name : {"canneal", "streamcluster", "radiosity"}) {
        Profile p = scaled(benchmark(name), 0.15);
        runMesiAndCheck(p, 16);
    }
}

TEST(MesiRaceRegression, NaiveSyncAlsoCleans)
{
    Profile p = scaled(benchmark("canneal"), 0.15);
    ChipConfig cfg = ChipConfig::forTechnique(Technique::Invalidation, 16);
    auto w = buildWorkload(p, 16, SyncFlavor::Mesi,
                           LockAlgo::TestAndTestAndSet,
                           BarrierAlgo::SenseReversing);
    Chip chip(cfg);
    w.layout.apply(chip.dataStore());
    for (CoreId t = 0; t < 16; ++t)
        chip.setProgram(t, w.programs[t]);
    chip.run();
    EXPECT_EQ(watchTimeouts(chip), 0u);
}

TEST(MesiRaceRegression, HighContentionFlagPingPong)
{
    // Two cores alternate writes to a flag while 14 spin on it in
    // tight loops: maximizes Inv-vs-fill overlaps.
    Chip chip(testConfig(Technique::Invalidation, 16));
    idleAll(chip);
    constexpr Addr flag = 0x50000;
    constexpr unsigned rounds = 200;

    for (CoreId w = 0; w < 2; ++w) {
        Assembler a;
        for (unsigned i = 0; i < rounds; ++i) {
            a.workImm(37 + w * 13);
            a.movImm(1, flag);
            a.stImm(i * 2 + w, 1).sync = true;
        }
        chip.setProgram(w, a.assemble());
    }
    for (CoreId c = 2; c < 16; ++c) {
        Assembler a;
        a.movImm(1, flag);
        a.movImm(4, 0);
        a.movImm(5, 2 * rounds - 2);
        a.label("loop");
        auto& spin = a.ld(2, 1);
        spin.sync = true;
        spin.spin = true;
        a.beq(2, 4, "loop");
        a.mov(4, 2);
        a.blt(4, 5, "loop");
        chip.setProgram(c, a.assemble());
    }
    chip.run(); // termination under the tick guard is the assertion
    EXPECT_EQ(watchTimeouts(chip), 0u);
}

TEST(MesiRaceRegression, LlcSetIndexingUsesWholeBank)
{
    // Regression for the bank set-indexing bug: interleaved line
    // numbers must spread over all LLC sets, not collide in a few.
    CacheGeometry g{256 * 1024, 16, 64};
    g.indexDivisor = 64;
    CacheArray<int> bank(g);
    // Lines homed on bank 0: lineNumber = 64k. Install 1024 of them.
    for (unsigned k = 0; k < 1024; ++k) {
        const Addr addr = Addr(64 * k) * 64;
        auto* v = bank.victim(addr);
        bank.install(*v, addr);
    }
    // 256 sets x 16 ways = 4096 lines; 1024 distinct lines must all
    // still be resident (no conflict evictions).
    EXPECT_EQ(bank.validCount(), 1024u);
}

TEST(MesiRaceRegression, TinyLlcRecallsStayLive)
{
    // Force genuine LLC evictions (recalls) with a tiny LLC and check
    // the workload still completes with mutual exclusion intact.
    Profile p = scaled(benchmark("canneal"), 0.1);
    ChipConfig cfg = ChipConfig::forTechnique(Technique::Invalidation, 16);
    cfg.llcBank = CacheGeometry{4 * 1024, 4, 64}; // 64 lines per bank
    auto w = buildWorkload(p, 16, SyncFlavor::Mesi, LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    Chip chip(cfg);
    w.layout.apply(chip.dataStore());
    for (CoreId t = 0; t < 16; ++t)
        chip.setProgram(t, w.programs[t]);
    chip.run();
    for (std::size_t l = 0; l < w.guardWords.size(); ++l) {
        EXPECT_EQ(chip.dataStore().read(w.guardWords[l]),
                  w.expectedGuardCounts[l]);
    }
    std::uint64_t recalls = 0;
    for (BankId b = 0; b < 16; ++b)
        recalls += mesiBank(chip, b).recalls();
    EXPECT_GT(recalls, 0u);
}

TEST(MesiRaceRegression, SwmrInvariantHoldsUnderLoad)
{
    // Run the protocol checker every 200 cycles through a sync-dense
    // MESI workload: no line may ever have an exclusive holder plus
    // other valid copies (the signature of both bring-up races).
    Profile p = scaled(benchmark("canneal"), 0.15);
    ChipConfig cfg = ChipConfig::forTechnique(Technique::Invalidation, 16);
    auto w = buildWorkload(p, 16, SyncFlavor::Mesi, LockAlgo::Mcs,
                           BarrierAlgo::TreeSenseReversing);
    Chip chip(cfg);
    w.layout.apply(chip.dataStore());
    for (CoreId t = 0; t < 16; ++t)
        chip.setProgram(t, w.programs[t]);
    SwmrChecker checker(chip, 200);
    chip.run();
    EXPECT_GT(checker.checksRun(), 50u);
    EXPECT_EQ(checker.violations(), 0u) << checker.firstViolation();
}

TEST(VipsStress, TinyLlcStaysCorrect)
{
    Profile p = scaled(benchmark("radiosity"), 0.1);
    ChipConfig cfg = ChipConfig::forTechnique(Technique::CbOne, 16);
    cfg.llcBank = CacheGeometry{4 * 1024, 4, 64};
    auto w = buildWorkload(p, 16, SyncFlavor::CbOne, LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    Chip chip(cfg);
    w.layout.apply(chip.dataStore());
    for (CoreId t = 0; t < 16; ++t)
        chip.setProgram(t, w.programs[t]);
    chip.run();
    for (std::size_t l = 0; l < w.guardWords.size(); ++l) {
        EXPECT_EQ(chip.dataStore().read(w.guardWords[l]),
                  w.expectedGuardCounts[l]);
    }
}

TEST(VipsStress, SingleEntryDirectoryManyHotWords)
{
    // 16 spin flags all homed with 1-entry-per-bank callback
    // directories: constant eviction churn; everything must complete.
    ChipConfig cfg = testConfig(Technique::CbAll, 16);
    cfg.cbEntriesPerBank = 1;
    Chip chip(cfg);
    SyncLayout layout;
    std::vector<Addr> flags;
    for (int i = 0; i < 16; ++i) {
        flags.push_back(layout.allocLine());
        layout.init(flags.back(), 0);
    }
    // Core 0 sets all flags after a delay; others spin on theirs.
    Assembler w;
    w.workImm(20000);
    for (Addr f : flags) {
        w.movImm(1, f);
        w.stThroughImm(1, 1);
    }
    chip.setProgram(0, w.assemble());
    for (CoreId c = 1; c < 16; ++c) {
        Assembler a;
        a.movImm(1, flags[c]);
        a.ldThrough(2, 1);
        a.bnez(2, "out");
        a.label("spn");
        a.ldCb(2, 1);
        a.beqz(2, "spn");
        a.label("out");
        chip.setProgram(c, a.assemble());
    }
    layout.apply(chip.dataStore());
    chip.run();
    for (CoreId c = 1; c < 16; ++c)
        EXPECT_EQ(chip.core(c).reg(2), 1u);
}

} // namespace
} // namespace cbsim
