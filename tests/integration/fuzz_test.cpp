/**
 * @file
 * Randomized cross-protocol fuzzing.
 *
 * Commutative-atomic conservation: every technique executes the same
 * randomly generated program of fetch&add atomics (mixed with racy
 * loads, stores to private words, fences, and compute) against shared
 * counters. Whatever interleaving a protocol produces, the final
 * counter values must equal the sum of the addends — any protocol bug
 * that loses, duplicates, or tears an atomic shows up as a mismatch.
 * The racy loads additionally exercise ld_through/ld_cb paths under
 * concurrent writers (values are unchecked — they are racy — but the
 * runs must terminate and keep the counters exact).
 */

#include <gtest/gtest.h>

#include "../support/chip_helpers.hh"
#include "sim/rng.hh"
#include "sync/layout.hh"
#include "sync/locks.hh"

namespace cbsim {
namespace {

struct FuzzCase
{
    std::uint64_t seed;
    unsigned cores;
    unsigned words;
    unsigned opsPerCore;
};

class AtomicConservationFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(AtomicConservationFuzz, AllTechniquesConserveSums)
{
    const FuzzCase fc = GetParam();

    SyncLayout layout;
    std::vector<Addr> words;
    for (unsigned w = 0; w < fc.words; ++w) {
        words.push_back(layout.allocLine());
        layout.init(words.back(), 0);
    }

    // Generate one program per core; track expected sums per word.
    std::vector<Word> expected(fc.words, 0);
    std::vector<Program> programs;
    for (CoreId t = 0; t < fc.cores; ++t) {
        Rng rng(fc.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
        Assembler a;
        const Addr priv = layout.allocPrivateLine(t);
        a.workImm(rng.below(100));
        for (unsigned i = 0; i < fc.opsPerCore; ++i) {
            const unsigned w = static_cast<unsigned>(rng.below(fc.words));
            a.movImm(1, words[w]);
            switch (rng.below(6)) {
              case 0:
              case 1: {
                const Word addend = 1 + rng.below(9);
                expected[w] += addend;
                // Random wake policy: must not affect atomicity.
                const WakePolicy wp =
                    rng.below(2) ? WakePolicy::All : WakePolicy::One;
                a.atomic(2, 1, 0, AtomicFunc::FetchAndAdd, addend, 0,
                         false, wp);
                break;
              }
              case 2:
                a.ldThrough(2, 1);
                break;
              case 3:
                // DRF private traffic (fills, flushes, classification).
                a.movImm(3, priv);
                a.stImm(rng.next() & 0xff, 3);
                break;
              case 4:
                a.workImm(rng.below(200));
                break;
              case 5:
                if (rng.below(2))
                    a.selfInvl();
                else
                    a.selfDown();
                break;
            }
        }
        programs.push_back(a.assemble());
    }

    for (Technique tech :
         {Technique::Invalidation, Technique::BackOff0,
          Technique::BackOff10, Technique::CbAll, Technique::CbOne}) {
        Chip chip(testConfig(tech, fc.cores));
        layout.apply(chip.dataStore());
        for (CoreId t = 0; t < fc.cores; ++t)
            chip.setProgram(t, programs[t]);
        chip.run();
        for (unsigned w = 0; w < fc.words; ++w) {
            EXPECT_EQ(chip.dataStore().read(words[w]), expected[w])
                << techniqueName(tech) << " word " << w << " seed "
                << fc.seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AtomicConservationFuzz,
    ::testing::Values(FuzzCase{1, 4, 3, 40}, FuzzCase{2, 16, 2, 30},
                      FuzzCase{3, 16, 8, 25}, FuzzCase{4, 9, 1, 60},
                      FuzzCase{5, 16, 16, 20}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
        return "seed" + std::to_string(info.param.seed);
    });

/**
 * Blocking-callback fuzz: random producer/consumer pairs where every
 * consumer ld_cb is eventually matched by a producer store. Checks
 * termination and that consumers always observe a producer-written
 * value (never a torn/garbage word).
 */
TEST(CallbackFuzz, RandomProducerConsumerPairsTerminate)
{
    for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
        Rng rng(seed);
        constexpr unsigned cores = 16;
        SyncLayout layout;
        std::vector<Addr> flags;
        for (unsigned p = 0; p < cores / 2; ++p) {
            flags.push_back(layout.allocLine());
            layout.init(flags.back(), 0);
        }
        Chip chip(testConfig(rng.below(2) ? Technique::CbAll
                                          : Technique::CbOne,
                             cores));
        for (CoreId t = 0; t < cores; ++t) {
            const unsigned pair = t / 2;
            Assembler a;
            const Label out = a.newLabel();
            const Label spn = a.newLabel();
            if (t % 2 == 0) {
                a.workImm(rng.below(4000));
                a.movImm(1, flags[pair]);
                a.stThroughImm(7 + pair, 1);
            } else {
                a.movImm(1, flags[pair]);
                a.ldThrough(2, 1);
                a.bnez(2, out);
                a.bind(spn);
                a.ldCb(2, 1);
                a.beqz(2, spn);
                a.bind(out);
            }
            chip.setProgram(t, a.assemble());
        }
        layout.apply(chip.dataStore());
        chip.run();
        for (CoreId t = 1; t < cores; t += 2)
            EXPECT_EQ(chip.core(t).reg(2), 7u + t / 2) << "seed " << seed;
    }
}

} // namespace
} // namespace cbsim
