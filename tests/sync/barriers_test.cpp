/**
 * @file
 * Barrier tests, parameterized over (flavour x algorithm): the safety
 * invariant (no thread passes barrier k before all arrived), repeated
 * episodes with imbalance, and flavour traffic properties.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "../support/chip_helpers.hh"
#include "sim/rng.hh"
#include "sync/barriers.hh"

namespace cbsim {
namespace {

Technique
techniqueFor(SyncFlavor f)
{
    switch (f) {
      case SyncFlavor::Mesi: return Technique::Invalidation;
      case SyncFlavor::VipsBackoff: return Technique::BackOff5;
      case SyncFlavor::CbAll: return Technique::CbAll;
      case SyncFlavor::CbOne: return Technique::CbOne;
    }
    return Technique::Invalidation;
}

using Param = std::tuple<SyncFlavor, BarrierAlgo>;

struct BarrierTest : ::testing::TestWithParam<Param>
{
    SyncFlavor flavor = std::get<0>(GetParam());
    BarrierAlgo algo = std::get<1>(GetParam());

    BarrierHandle
    make(SyncLayout& layout, unsigned cores)
    {
        return algo == BarrierAlgo::SenseReversing
                   ? makeSrBarrier(layout, cores,
                                   LockAlgo::TestAndTestAndSet)
                   : makeTreeBarrier(layout, cores);
    }
};

TEST_P(BarrierTest, SafetyInvariantAcrossPhases)
{
    // Every thread publishes its arrival count (slot[t] = p+1, racy
    // store-through) before the barrier; after the barrier it checks
    // that its neighbour's slot is >= p+1. Violations bump an error
    // counter atomically.
    constexpr unsigned cores = 4;
    constexpr unsigned phases = 6;
    Chip chip(testConfig(techniqueFor(flavor), cores));
    SyncLayout layout;
    BarrierHandle barrier = make(layout, cores);
    std::vector<Addr> slots;
    for (unsigned t = 0; t < cores; ++t) {
        slots.push_back(layout.allocLine());
        layout.init(slots.back(), 0);
    }
    const Addr errors = layout.allocLine();
    layout.init(errors, 0);

    for (CoreId t = 0; t < cores; ++t) {
        Assembler a;
        const Label loop = a.newLabel();
        const Label violation = a.newLabel();
        const Label next = a.newLabel();
        Rng rng(99 + t);
        a.movImm(7, 0); // phase counter
        a.movImm(8, phases);
        a.bind(loop);
        a.workImm(rng.jitter(600, 0.8)); // heavy imbalance
        // slot[t] = p + 1 (racy single-writer store).
        a.movImm(1, slots[t]);
        a.addImm(2, 7, 1);
        a.stThrough(2, 1);
        emitBarrier(a, barrier, flavor, t);
        // check: slot[(t+1) % cores] >= p + 1
        a.movImm(1, slots[(t + 1) % cores]);
        a.ldThrough(3, 1);
        a.addImm(2, 7, 1);
        a.blt(3, 2, violation);
        a.jump(next);
        a.bind(violation);
        a.movImm(1, errors);
        a.atomic(4, 1, 0, AtomicFunc::FetchAndAdd, 1, 0, false,
                 WakePolicy::All);
        a.bind(next);
        a.addImm(7, 7, 1);
        a.bne(7, 8, loop);
        chip.setProgram(t, a.assemble());
    }
    layout.apply(chip.dataStore());
    chip.run();
    EXPECT_EQ(chip.dataStore().read(errors), 0u);
    // All threads completed all phases.
    for (unsigned t = 0; t < cores; ++t)
        EXPECT_EQ(chip.dataStore().read(slots[t]), phases);
}

TEST_P(BarrierTest, SixteenCores)
{
    constexpr unsigned cores = 16;
    constexpr unsigned phases = 3;
    Chip chip(testConfig(techniqueFor(flavor), cores));
    SyncLayout layout;
    BarrierHandle barrier = make(layout, cores);

    for (CoreId t = 0; t < cores; ++t) {
        Assembler a;
        Rng rng(7 + t);
        for (unsigned p = 0; p < phases; ++p) {
            a.workImm(rng.jitter(400, 0.9));
            emitBarrier(a, barrier, flavor, t);
        }
        chip.setProgram(t, a.assemble());
    }
    layout.apply(chip.dataStore());
    auto result = chip.run(); // termination proves no lost wake-ups
    const auto k = static_cast<std::size_t>(SyncKind::Barrier);
    EXPECT_EQ(result.sync[k].completions, cores * phases);
}

TEST_P(BarrierTest, SingleThreadBarrierIsTrivial)
{
    Chip chip(testConfig(techniqueFor(flavor), 1));
    SyncLayout layout;
    BarrierHandle barrier = make(layout, 1);
    Assembler a;
    for (int p = 0; p < 4; ++p)
        emitBarrier(a, barrier, flavor, 0);
    chip.setProgram(0, a.assemble());
    layout.apply(chip.dataStore());
    chip.run();
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavorsAndAlgos, BarrierTest,
    ::testing::Combine(::testing::Values(SyncFlavor::Mesi,
                                         SyncFlavor::VipsBackoff,
                                         SyncFlavor::CbAll,
                                         SyncFlavor::CbOne),
                       ::testing::Values(BarrierAlgo::SenseReversing,
                                         BarrierAlgo::TreeSenseReversing)),
    [](const ::testing::TestParamInfo<Param>& info) {
        std::string name = syncFlavorName(std::get<0>(info.param));
        name += "_";
        name += barrierAlgoName(std::get<1>(info.param));
        for (auto& ch : name) {
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

TEST(BarrierTraffic, CallbackBarrierBlocksInsteadOfSpinning)
{
    auto run = [](Technique tech, SyncFlavor flavor) {
        constexpr unsigned cores = 4;
        Chip chip(testConfig(tech, cores));
        SyncLayout layout;
        BarrierHandle barrier = makeTreeBarrier(layout, cores);
        for (CoreId t = 0; t < cores; ++t) {
            Assembler a;
            // Thread 3 arrives very late: others wait a long time.
            a.workImm(t == 3 ? 30000 : 100);
            emitBarrier(a, barrier, flavor, t);
            chip.setProgram(t, a.assemble());
        }
        layout.apply(chip.dataStore());
        return chip.run().llcSyncAccesses;
    };
    const auto spinning = run(Technique::BackOff0,
                              SyncFlavor::VipsBackoff);
    const auto callback = run(Technique::CbAll, SyncFlavor::CbAll);
    EXPECT_GT(spinning, 5 * callback);
}

TEST(BarrierAtomicVariant, Figure14SingleAtomicCounterWorks)
{
    constexpr unsigned cores = 4;
    for (SyncFlavor flavor : {SyncFlavor::Mesi, SyncFlavor::CbAll}) {
        Chip chip(testConfig(techniqueFor(flavor), cores));
        SyncLayout layout;
        BarrierHandle barrier = makeSrBarrierAtomic(layout, cores);
        for (CoreId t = 0; t < cores; ++t) {
            Assembler a;
            for (int p = 0; p < 4; ++p) {
                a.workImm(100 + 321 * t % 777);
                emitBarrier(a, barrier, flavor, t);
            }
            chip.setProgram(t, a.assemble());
        }
        layout.apply(chip.dataStore());
        auto result = chip.run();
        const auto k = static_cast<std::size_t>(SyncKind::Barrier);
        EXPECT_EQ(result.sync[k].completions, cores * 4u);
    }
}

} // namespace
} // namespace cbsim
