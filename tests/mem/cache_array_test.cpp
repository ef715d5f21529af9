/**
 * @file
 * Set-associative array tests: lookup, LRU victimization, pinned-way
 * victim selection, the validity bitmap (visit order, invalidation
 * during a walk, counts), and a randomized cross-check against a
 * reference model on power-of-two, non-power-of-two and word-straddling
 * geometries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/rng.hh"

namespace cbsim {
namespace {

struct TagState
{
    int marker = 0;
};

using Array = CacheArray<TagState>;

CacheGeometry
smallGeom()
{
    // 4 sets x 2 ways x 64 B lines.
    return CacheGeometry{4 * 2 * 64, 2, 64};
}

TEST(CacheArray, GeometryDerivesSets)
{
    EXPECT_EQ(CacheGeometry({32 * 1024, 4, 64}).numSets(), 128u);
    EXPECT_EQ(CacheGeometry({256 * 1024, 16, 64}).numSets(), 256u);
}

TEST(CacheArray, MissThenHit)
{
    Array a(smallGeom());
    EXPECT_EQ(a.find(0x1000), nullptr);
    auto* v = a.victim(0x1000);
    a.install(*v, 0x1000);
    auto* line = a.find(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tag, 0x1000u);
    // Any address inside the line hits.
    EXPECT_EQ(a.find(0x1038), line);
    EXPECT_EQ(a.find(0x1040), nullptr);
}

TEST(CacheArray, InstallResetsState)
{
    Array a(smallGeom());
    auto* v = a.victim(0x2000);
    a.install(*v, 0x2000);
    v->state.marker = 99;
    a.invalidate(*v);
    auto* v2 = a.victim(0x2000);
    a.install(*v2, 0x2000);
    EXPECT_EQ(a.find(0x2000)->state.marker, 0);
}

TEST(CacheArray, LruEvictsOldest)
{
    Array a(smallGeom());
    // Set stride: 4 sets * 64 B = 256 B. These three map to set 0.
    const Addr x = 0x0, y = 0x100, z = 0x200;
    a.install(*a.victim(x), x);
    a.install(*a.victim(y), y);
    a.touch(*a.find(x)); // x is now MRU
    auto* v = a.victim(z);
    EXPECT_EQ(v->tag, y); // y is LRU
}

TEST(CacheArray, VictimPrefersInvalidWay)
{
    Array a(smallGeom());
    a.install(*a.victim(0x0), 0x0);
    auto* v = a.victim(0x100);
    EXPECT_FALSE(a.isValid(*v));
}

TEST(CacheArray, VictimIfSkipsPinnedWays)
{
    Array a(smallGeom());
    const Addr x = 0x0, y = 0x100, z = 0x200;
    a.install(*a.victim(x), x);
    a.install(*a.victim(y), y);
    // Pin the LRU line (x); victimIf must pick y.
    auto* v = a.victimIf(z, [&](const Array::Line& l) { return l.tag != x; });
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->tag, y);
    // Pin everything: no victim available.
    EXPECT_EQ(a.victimIf(z, [](const Array::Line&) { return false; }),
              nullptr);
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    Array a(smallGeom());
    for (Addr addr : {0x0ULL, 0x40ULL, 0x80ULL})
        a.install(*a.victim(addr), addr);
    int count = 0;
    a.forEachValid([&](Array::Line&) { ++count; });
    EXPECT_EQ(count, 3);
    EXPECT_EQ(a.validCount(), 3u);
}

/** Install every line of @p a: addresses 0, 64, 128, ... in order. */
std::vector<Array::Line*>
fillAll(Array& a, std::size_t lines)
{
    std::vector<Array::Line*> out;
    for (std::size_t i = 0; i < lines; ++i) {
        const Addr addr = i * 64;
        auto* v = a.victim(addr);
        EXPECT_FALSE(a.isValid(*v));
        a.install(*v, addr);
        out.push_back(v);
    }
    return out;
}

/** 32 sets x 4 ways: 128 lines, two bitmap words. */
CacheGeometry
twoWordGeom()
{
    return CacheGeometry{32 * 4 * 64, 4, 64};
}

TEST(CacheArray, ForEachValidVisitsAscendingIndexOrderAcrossHoles)
{
    Array a(twoWordGeom());
    const auto lines = fillAll(a, 128);
    std::vector<const Array::Line*> expected;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i % 3 == 1 || i == 63 || i == 64)
            a.invalidate(*lines[i]);
        else
            expected.push_back(lines[i]);
    }
    std::vector<const Array::Line*> seen;
    a.forEachValid([&](Array::Line& l) { seen.push_back(&l); });
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(seen, expected); // ascending index = ascending address
    EXPECT_EQ(a.validCount(), expected.size());

    // The const walk visits the same lines in the same order.
    const Array& ca = a;
    std::vector<const Array::Line*> seenConst;
    ca.forEachValid([&](const Array::Line& l) { seenConst.push_back(&l); });
    EXPECT_EQ(seenConst, expected);
}

TEST(CacheArray, InvalidatingTheVisitedLineKeepsTheWalkGoing)
{
    Array a(twoWordGeom());
    const auto lines = fillAll(a, 128);
    std::vector<const Array::Line*> seen;
    a.forEachValid([&](Array::Line& l) {
        seen.push_back(&l);
        a.invalidate(l);
    });
    EXPECT_EQ(seen.size(), 128u);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_EQ(a.validCount(), 0u);

    // A walk that invalidates a later line does not visit it.
    const auto again = fillAll(a, 128);
    seen.clear();
    a.forEachValid([&](Array::Line& l) {
        seen.push_back(&l);
        if (&l == again[10])
            a.invalidate(*again[11]);
    });
    EXPECT_EQ(seen.size(), 127u);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), again[11]), 0);
}

TEST(CacheArray, VictimIsTheLowestInvalidWay)
{
    // 1 set x 4 ways: installs fill ways 0..3 in order.
    Array a(CacheGeometry{4 * 64, 4, 64});
    const auto ways = fillAll(a, 4);
    for (std::size_t w = 1; w < ways.size(); ++w)
        EXPECT_EQ(ways[w], ways[0] + w);
    a.invalidate(*ways[3]);
    a.invalidate(*ways[1]);
    EXPECT_EQ(a.victim(0x1000), ways[1]);
    EXPECT_EQ(a.victimIf(0x1000, [](const Array::Line&) { return false; }),
              ways[1]); // invalid ways qualify even when all are pinned
    a.install(*ways[1], 0x1000);
    EXPECT_EQ(a.victim(0x1040), ways[3]);
    a.install(*ways[3], 0x1040);
    // Full set: true LRU again (way 0 was installed first).
    EXPECT_EQ(a.victim(0x1080), ways[0]);
}

TEST(CacheArray, ValidCountTracksInstallsAndInvalidations)
{
    Array a(twoWordGeom());
    EXPECT_EQ(a.validCount(), 0u);
    const auto lines = fillAll(a, 100);
    EXPECT_EQ(a.validCount(), 100u);
    for (std::size_t i = 0; i < 100; i += 2)
        a.invalidate(*lines[i]);
    EXPECT_EQ(a.validCount(), 50u);
    a.invalidate(*lines[1]);
    a.invalidate(*lines[1]); // idempotent
    EXPECT_EQ(a.validCount(), 49u);
    a.install(*lines[0], 0);
    EXPECT_EQ(a.validCount(), 50u);
    EXPECT_TRUE(a.isValid(*lines[0]));
    EXPECT_FALSE(a.isValid(*lines[1]));
}

TEST(CacheArray, NonPowerOfTwoIndexDivisorSelectsSets)
{
    // An LLC bank of a 9-core chip sees line numbers n with n % 9 == b;
    // dividing by 9 spreads them over all 4 sets.
    Array a(CacheGeometry{4 * 2 * 64, 2, 64, 9});
    std::vector<const Array::Line*> placed;
    for (std::uint64_t k = 0; k < 8; ++k) {
        const Addr addr = (k * 9 + 2) * 64; // bank 2's lines
        auto* v = a.victim(addr);
        ASSERT_FALSE(a.isValid(*v)) << "line " << k << " evicted early";
        a.install(*v, addr);
        placed.push_back(v);
    }
    EXPECT_EQ(a.validCount(), 8u);
    // Lines k and k + 4 share set k % 4: way 0 then way 1.
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(placed[k + 4], placed[k] + 1);
    for (std::uint64_t k = 0; k < 8; ++k)
        EXPECT_EQ(a.find((k * 9 + 2) * 64), placed[k]);
}

/**
 * Randomized cross-check against a reference model that places each
 * line in a (set, way) slot: misses fill the lowest empty way, else
 * the LRU one; invalidations empty a slot; and every walk must visit
 * the occupied slots in ascending (set, way) order.
 */
void
checkAgainstReferenceModel(const CacheGeometry& geom, std::uint64_t universe,
                           std::uint64_t seed)
{
    Array a(geom);
    const std::uint64_t sets = geom.numSets();
    const unsigned ways = geom.ways;
    auto setOf = [&](Addr addr) {
        return (addr / 64 / geom.indexDivisor) % sets;
    };
    struct Slot
    {
        Addr addr = 0;
        std::uint64_t stamp = 0;
        bool used = false;
    };
    std::vector<std::vector<Slot>> ref(sets, std::vector<Slot>(ways));
    // Address of way 0 of each set, learnt from its first fill.
    std::vector<Array::Line*> base(sets, nullptr);
    std::uint64_t clock = 0;
    std::size_t live = 0;
    Rng rng(seed);

    auto slotOf = [&](Addr addr) -> int {
        const auto& set = ref[setOf(addr)];
        for (unsigned w = 0; w < ways; ++w) {
            if (set[w].used && set[w].addr == addr)
                return static_cast<int>(w);
        }
        return -1;
    };

    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(universe) * 64;
        const auto s = setOf(addr);
        auto& set = ref[s];
        const int w = slotOf(addr);
        const auto op = rng.below(100);

        if (op < 15) {
            // Invalidate, if present.
            auto* line = a.find(addr);
            ASSERT_EQ(line != nullptr, w >= 0) << "find disagrees";
            if (line != nullptr) {
                ASSERT_EQ(line, base[s] + w);
                a.invalidate(*line);
                set[w].used = false;
                --live;
            }
        } else if (auto* line = a.find(addr)) {
            ASSERT_GE(w, 0) << "array hit but reference miss";
            ASSERT_EQ(line, base[s] + w);
            a.touch(*line);
            set[w].stamp = ++clock;
        } else {
            ASSERT_LT(w, 0) << "array miss but reference hit";
            unsigned want = ways;
            for (unsigned k = 0; k < ways && want == ways; ++k) {
                if (!set[k].used)
                    want = k;
            }
            if (want == ways) {
                want = 0;
                for (unsigned k = 1; k < ways; ++k) {
                    if (set[k].stamp < set[want].stamp)
                        want = k;
                }
            }
            auto* v = a.victim(addr);
            if (base[s] == nullptr) {
                ASSERT_EQ(want, 0u);
                base[s] = v;
            }
            ASSERT_EQ(v, base[s] + want) << "wrong victim way";
            ASSERT_EQ(a.isValid(*v), set[want].used);
            if (set[want].used)
                ASSERT_EQ(v->tag, set[want].addr);
            else
                ++live;
            a.install(*v, addr);
            set[want] = Slot{addr, ++clock, true};
        }

        if (i % 97 == 0) {
            std::vector<Addr> expected;
            for (const auto& rs : ref) {
                for (const Slot& slot : rs) {
                    if (slot.used)
                        expected.push_back(slot.addr);
                }
            }
            std::vector<Addr> seen;
            const Array::Line* prev = nullptr;
            a.forEachValid([&](const Array::Line& l) {
                EXPECT_TRUE(prev == nullptr || prev < &l);
                prev = &l;
                seen.push_back(l.tag);
            });
            ASSERT_EQ(seen, expected) << "visit order at step " << i;
            ASSERT_EQ(a.validCount(), live);
        }
    }
}

TEST(CacheArray, MatchesReferenceModelUnderRandomTraffic)
{
    // 4 sets x 2 ways, 16 lines of traffic.
    checkAgainstReferenceModel(smallGeom(), 16, 1234);
}

TEST(CacheArray, MatchesReferenceModelWithNonPowerOfTwoDivisor)
{
    // 3 sets x 2 ways behind a divisor of 9: the div/mod index path.
    checkAgainstReferenceModel(CacheGeometry{3 * 2 * 64, 2, 64, 9}, 120, 77);
}

TEST(CacheArray, MatchesReferenceModelWhenSetsStraddleBitmapWords)
{
    // 48 sets x 3 ways = 144 lines; sets 21 and 42 straddle bitmap
    // words (they start at bits 63 and 126).
    checkAgainstReferenceModel(CacheGeometry{48 * 3 * 64, 3, 64}, 300, 9);
}

} // namespace
} // namespace cbsim
