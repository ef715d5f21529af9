/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, stability,
 * re-entrancy, and the tick-budget deadlock guard.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace cbsim {
namespace {

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, ExecutesInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickEventsAreFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.schedule(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 4u * 7u);
}

TEST(EventQueue, ZeroDelayRunsAtCurrentTick)
{
    EventQueue eq;
    Tick seen = maxTick;
    eq.schedule(12, [&] {
        eq.schedule(0, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 12u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_THROW(eq.scheduleAt(5, [] {}), PanicError);
    });
    eq.run();
}

TEST(EventQueue, TickBudgetDetectsRunaway)
{
    EventQueue eq;
    std::function<void()> forever = [&] { eq.schedule(100, forever); };
    eq.schedule(0, forever);
    EXPECT_THROW(eq.run(10'000), FatalError);
}

TEST(EventQueue, ExecutedEventCountIsAccurate)
{
    EventQueue eq;
    for (int i = 0; i < 25; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 25u);
}

} // namespace
} // namespace cbsim
