/**
 * @file
 * First-touch private/shared classification tests (VIPS-M's page
 * mechanism): ownership, permanent promotion, and the transition hook.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/vips/page_classifier.hh"

namespace cbsim {
namespace {

TEST(PageClassifier, FirstTouchIsPrivate)
{
    PageClassifier pc;
    EXPECT_EQ(pc.classify(0x1000, 3), PageClass::Private);
    EXPECT_EQ(pc.classify(0x1010, 3), PageClass::Private); // same page
    EXPECT_EQ(pc.peek(0x1fff), PageClass::Private);
}

TEST(PageClassifier, SecondAccessorPromotesToShared)
{
    PageClassifier pc;
    pc.classify(0x1000, 0);
    EXPECT_EQ(pc.classify(0x1008, 1), PageClass::Shared);
    // Promotion is permanent, even for the original owner.
    EXPECT_EQ(pc.classify(0x1000, 0), PageClass::Shared);
    EXPECT_EQ(pc.peek(0x1000), PageClass::Shared);
}

TEST(PageClassifier, DistinctPagesAreIndependent)
{
    PageClassifier pc;
    pc.classify(0x1000, 0);
    pc.classify(0x2000, 1);
    EXPECT_EQ(pc.classify(0x1100, 0), PageClass::Private);
    EXPECT_EQ(pc.classify(0x2100, 1), PageClass::Private);
}

TEST(PageClassifier, TransitionHookFiresOncePerPage)
{
    std::vector<std::pair<CoreId, Addr>> calls;
    PageClassifier pc([&](CoreId prev, Addr page) {
        calls.emplace_back(prev, page);
    });
    pc.classify(0x5000, 2);
    pc.classify(0x5008, 4); // promotes; hook(2, 0x5000)
    pc.classify(0x5010, 5); // already shared; no hook
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].first, 2u);
    EXPECT_EQ(calls[0].second, 0x5000u);
}

TEST(PageClassifier, UnknownPagePeeksPrivate)
{
    PageClassifier pc;
    EXPECT_EQ(pc.peek(0x9000), PageClass::Private);
}

TEST(PageClassifier, StatsCountTransitions)
{
    PageClassifier pc;
    pc.classify(0x1000, 0);
    pc.classify(0x2000, 0);
    pc.classify(0x1000, 1);
    EXPECT_EQ(pc.privatePages(), 2u);
    EXPECT_EQ(pc.transitions(), 1u);
}

} // namespace
} // namespace cbsim
