/**
 * @file
 * Full-workload integration tests: every technique runs a benchmark
 * skeleton to completion with the mutual-exclusion and phase-progress
 * invariants intact; the suite itself is well-formed.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace cbsim {
namespace {

Profile
tinyProfile()
{
    Profile p = benchmark("radiosity");
    p = scaled(p, 0.3);
    p.phases = 2;
    return p;
}

TEST(Suite, HasNineteenBenchmarks)
{
    const auto& suite = benchmarkSuite();
    EXPECT_EQ(suite.size(), 19u);
    unsigned splash = 0, parsec = 0;
    for (const auto& p : suite) {
        if (p.suite == "splash2")
            ++splash;
        else if (p.suite == "parsec")
            ++parsec;
    }
    EXPECT_EQ(splash, 12u); // the entire Splash-2 suite (§5.1)
    EXPECT_EQ(parsec, 7u);
}

TEST(Suite, NamesAreUniqueAndLookupWorks)
{
    const auto& suite = benchmarkSuite();
    for (const auto& p : suite)
        EXPECT_EQ(benchmark(p.name).name, p.name);
    EXPECT_THROW(benchmark("not-a-benchmark"), FatalError);
}

struct TechniqueRun : ::testing::TestWithParam<Technique>
{
};

TEST_P(TechniqueRun, TinyWorkloadCompletesWithInvariants)
{
    // runExperiment fatally checks guard counters (mutual exclusion).
    auto res = runExperiment(tinyProfile(), GetParam(), 16,
                             SyncChoice::scalable());
    EXPECT_GT(res.run.cycles, 0u);
}

TEST_P(TechniqueRun, NaiveSyncAlsoCompletes)
{
    auto res = runExperiment(tinyProfile(), GetParam(), 16,
                             SyncChoice::naive());
    EXPECT_GT(res.run.cycles, 0u);
}

TEST_P(TechniqueRun, PhaseWordsReachPhaseCount)
{
    // Every thread finished every phase: each thread-private phase word
    // is read back functionally after the run.
    const Profile p = tinyProfile();
    const Technique t = GetParam();
    ChipConfig cfg = ChipConfig::forTechnique(t, 16);
    auto w = buildWorkload(p, 16, syncFlavorFor(t), LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    Chip chip(cfg);
    w.layout.apply(chip.dataStore());
    for (CoreId c = 0; c < 16; ++c)
        chip.setProgram(c, w.programs[c]);
    chip.run();
    for (CoreId c = 0; c < 16; ++c)
        EXPECT_EQ(chip.dataStore().read(w.phaseWords[c]), p.phases);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniques, TechniqueRun,
    ::testing::ValuesIn(std::vector<Technique>(
        std::begin(allTechniques), std::end(allTechniques))),
    [](const ::testing::TestParamInfo<Technique>& info) {
        std::string name = techniqueName(info.param);
        for (auto& ch : name) {
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

TEST(Workload, PipelineProfileCompletes)
{
    Profile p = scaled(benchmark("dedup"), 0.3);
    p.phases = 2;
    for (Technique t : {Technique::Invalidation, Technique::CbOne}) {
        auto res = runExperiment(p, t, 16);
        EXPECT_GT(res.run.cycles, 0u);
    }
}

TEST(Workload, LockFreeProfileCompletes)
{
    Profile p = scaled(benchmark("fft"), 0.4);
    auto res = runExperiment(p, Technique::CbAll, 16);
    EXPECT_GT(res.run.cycles, 0u);
}

TEST(Workload, StructureIsFlavorIndependent)
{
    // The same profile must expand to the same lock-choice sequence
    // (expected guard counts) for every flavour — the cross-technique
    // comparability requirement of §5.2.
    const Profile p = tinyProfile();
    auto a = buildWorkload(p, 16, SyncFlavor::Mesi,
                           LockAlgo::TestAndTestAndSet,
                           BarrierAlgo::SenseReversing);
    auto b = buildWorkload(p, 16, SyncFlavor::CbOne, LockAlgo::Clh,
                           BarrierAlgo::TreeSenseReversing);
    EXPECT_EQ(a.expectedGuardCounts, b.expectedGuardCounts);
}

TEST(Workload, TinyCallbackDirectoryStillCorrect)
{
    // Failure injection: a 1-entry callback directory forces constant
    // evictions; invariants must still hold.
    auto res = runExperiment(tinyProfile(), Technique::CbOne, 16,
                             SyncChoice::scalable(),
                             /*cb_entries_per_bank=*/1);
    EXPECT_GT(res.run.cycles, 0u);
}

} // namespace
} // namespace cbsim
