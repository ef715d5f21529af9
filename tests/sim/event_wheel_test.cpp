/**
 * @file
 * Property and regression tests for the two-level event queue (timing
 * wheel + far-heap) and the inline Event/Clocked machinery.
 *
 * The load-bearing property: for ANY schedule — including far-future
 * overflow past the wheel window and re-entrant scheduling during
 * dispatch — the queue fires events in exactly (when, scheduling
 * sequence) order, i.e. indistinguishable from a reference model that
 * stable-sorts by tick. Everything downstream (bit-exact artifacts,
 * tests/golden/smoke) rests on this.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "mem/mshr.hh"
#include "sim/event_queue.hh"

namespace cbsim {
namespace {

/** Reference model: (when, seq) pairs, stable-sorted by when. */
using RefSchedule = std::vector<std::pair<Tick, std::uint64_t>>;

RefSchedule
sortedReference(RefSchedule ref)
{
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    return ref;
}

/**
 * Randomized schedules spanning the wheel window, the far-heap, and the
 * boundary between them, checked against the stable-sort reference.
 */
TEST(EventWheel, MatchesReferenceModelOnRandomSchedules)
{
    std::mt19937 rng(0xC0FFEEu); // fixed seed: deterministic test
    // Delay classes stress different paths: in-window, boundary
    // straddling wheelSize, and deep far-heap (spin-park watchdogs).
    std::uniform_int_distribution<Tick> nearDelay(0, 10);
    std::uniform_int_distribution<Tick> windowDelay(
        0, 2 * EventQueue::wheelSize);
    std::uniform_int_distribution<Tick> farDelay(50'000, 150'000);
    std::uniform_int_distribution<int> classPick(0, 9);

    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        RefSchedule ref;
        std::vector<std::pair<Tick, std::uint64_t>> fired;
        std::uint64_t seq = 0;

        auto scheduleOne = [&](Tick delay) {
            const Tick when = eq.now() + delay;
            const std::uint64_t id = seq++;
            ref.emplace_back(when, id);
            eq.schedule(delay, [&fired, &eq, when, id] {
                EXPECT_EQ(eq.now(), when);
                fired.emplace_back(when, id);
            });
        };
        auto randomDelay = [&] {
            const int c = classPick(rng);
            if (c < 6)
                return nearDelay(rng);
            if (c < 9)
                return windowDelay(rng);
            return farDelay(rng);
        };

        for (int i = 0; i < 500; ++i)
            scheduleOne(randomDelay());

        eq.run();
        EXPECT_EQ(fired, sortedReference(ref)) << "round " << round;
    }
}

/**
 * Same property with events scheduled *during dispatch* — the
 * re-entrant case where a bucket's vector can grow (and reallocate)
 * while it is being drained, and far events land mid-window.
 */
TEST(EventWheel, MatchesReferenceWithReentrantScheduling)
{
    std::mt19937 rng(0xB00Cu);
    std::uniform_int_distribution<Tick> delayPick(0, 600);
    std::uniform_int_distribution<int> fanout(0, 3);

    EventQueue eq;
    RefSchedule ref;
    std::vector<std::pair<Tick, std::uint64_t>> fired;
    std::uint64_t seq = 0;
    int budget = 2'000; // total events, so the cascade terminates

    // Declared std::function so the closure can reschedule itself; it
    // still rides the queue inline (function fits the event payload).
    std::function<void(Tick, std::uint64_t)> fire =
        [&](Tick when, std::uint64_t id) {
            EXPECT_EQ(eq.now(), when);
            fired.emplace_back(when, id);
            for (int k = fanout(rng); k > 0 && budget > 0; --k) {
                --budget;
                const Tick d =
                    fanout(rng) == 0 ? 100'000 : delayPick(rng);
                const Tick w = eq.now() + d;
                const std::uint64_t child = seq++;
                ref.emplace_back(w, child);
                eq.schedule(d, [&fire, w, child] { fire(w, child); });
            }
        };

    for (int i = 0; i < 50; ++i) {
        const Tick d = delayPick(rng);
        const std::uint64_t id = seq++;
        ref.emplace_back(d, id);
        eq.schedule(d, [&fire, d, id] { fire(d, id); });
    }
    eq.run();

    EXPECT_GT(fired.size(), 50u); // the cascade actually fanned out
    EXPECT_EQ(fired, sortedReference(ref));
}

/** Far-future events (beyond the wheel window) still interleave FIFO. */
TEST(EventWheel, FarHeapPreservesFifoAmongSameTickEvents)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick far = 100'000; // well past wheelSize
    for (int i = 0; i < 8; ++i)
        eq.schedule(far, [&order, i] { order.push_back(i); });
    eq.schedule(far + EventQueue::wheelSize, [&order] {
        order.push_back(100);
    });
    eq.run();
    ASSERT_EQ(order.size(), 9u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(order.back(), 100);
}

/** Wheel events scheduled after an earlier far event must not overtake
 *  it. The window slides with now_, and a far event migrates into its
 *  bucket at the first advance that brings it inside the window — here
 *  the advance to tick 100, before B is scheduled — so A is ahead. */
TEST(EventWheel, LaterScheduledWheelEventCannotOvertakeFarEvent)
{
    EventQueue eq;
    std::vector<int> order;
    // At t=0: A at 300 (outside the initial [0, wheelSize) window).
    eq.schedule(300, [&order] { order.push_back(1); });
    // At t=100: B at 350 — 350 is within 256 of now, but must still
    // fire after A(300).
    eq.schedule(100, [&order, &eq] {
        eq.schedule(250, [&order] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/**
 * The sliding window's hand-off cases: from every now_ & (wheelSize-1)
 * phase, events land just inside the window (wheelSize-1), on its edge
 * (wheelSize, the first far delay) and just past it (wheelSize+1), so
 * far events migrating into a bucket meet wheel events that later
 * phases schedule for the same tick. Order must match the reference.
 */
TEST(EventWheel, WindowEdgeDelaysFromEveryPhaseMatchReference)
{
    constexpr Tick W = EventQueue::wheelSize;
    EventQueue eq;
    RefSchedule ref;
    std::vector<std::pair<Tick, std::uint64_t>> fired;
    std::uint64_t seq = 0;

    auto scheduleLeaf = [&](Tick delay) {
        const Tick when = eq.now() + delay;
        const std::uint64_t id = seq++;
        ref.emplace_back(when, id);
        eq.schedule(delay, [&fired, &eq, when, id] {
            EXPECT_EQ(eq.now(), when);
            fired.emplace_back(when, id);
        });
    };
    // Two revolutions of phases, starting off a window boundary, so
    // drivers themselves cover near, edge and far placements.
    for (Tick t = 3; t < 3 + 2 * W; ++t) {
        const std::uint64_t id = seq++;
        ref.emplace_back(t, id);
        eq.scheduleAt(t, [&, t, id] {
            fired.emplace_back(t, id);
            for (Tick d : {W - 1, W, W + 1, Tick{0}, Tick{6}})
                scheduleLeaf(d);
        });
    }
    eq.run();
    EXPECT_EQ(fired.size(), ref.size());
    EXPECT_EQ(fired, sortedReference(ref));
}

/** A delay under wheelSize stays in the wheel wherever now_ sits in the
 *  window; only wheelSize or more ticks ahead goes to the far-heap. */
TEST(EventWheel, NearEventStaysInTheWheelLateInTheWindow)
{
    EventQueue eq;
    EventQueue::DebugSnapshot inWheel, onEdge;
    eq.schedule(200, [&] {
        eq.schedule(EventQueue::wheelSize - 1, [] {});
        inWheel = eq.debugSnapshot();
        eq.schedule(EventQueue::wheelSize, [] {});
        onEdge = eq.debugSnapshot();
    });
    eq.run();
    EXPECT_EQ(inWheel.farPending, 0u);
    ASSERT_EQ(inWheel.headWindow.size(), 1u);
    EXPECT_EQ(inWheel.headWindow[0],
              std::make_pair(Tick{200 + EventQueue::wheelSize - 1},
                             std::size_t{1}));
    EXPECT_EQ(onEdge.farPending, 1u);
    EXPECT_EQ(onEdge.farMin, 200 + EventQueue::wheelSize);
    EXPECT_EQ(eq.executedEvents(), 3u);
}

/**
 * An event that throws mid-bucket counts as run; the events after it
 * stay pending at the head of their bucket, and the next run() fires
 * them in order.
 */
TEST(EventWheel, ThrowMidBucketKeepsCountsAndResumes)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&order] { order.push_back(1); });
    eq.schedule(5, [&order] {
        order.push_back(2);
        panic("event 2 fails");
    });
    eq.schedule(5, [&order] { order.push_back(3); });
    eq.schedule(5, [&order] { order.push_back(4); });
    EXPECT_THROW(eq.run(), PanicError);
    EXPECT_EQ(eq.executedEvents(), 2u);
    EXPECT_EQ(eq.pendingEvents(), 2u);
    const EventQueue::DebugSnapshot snap = eq.debugSnapshot();
    EXPECT_EQ(snap.pending, 2u);
    ASSERT_EQ(snap.headWindow.size(), 1u);
    EXPECT_EQ(snap.headWindow[0], std::make_pair(Tick{5}, std::size_t{2}));

    EXPECT_EQ(eq.run(), 5u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.executedEvents(), 4u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

/** Same-tick events the throwing event scheduled stay behind the ones
 *  it interrupted, as they would have without the throw. */
TEST(EventWheel, ThrowMidBucketKeepsSameTickAppendsLast)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        eq.schedule(0, [&order] { order.push_back(3); });
        panic("event 1 fails");
    });
    eq.schedule(5, [&order] { order.push_back(2); });
    EXPECT_THROW(eq.run(), PanicError);
    EXPECT_EQ(eq.pendingEvents(), 2u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 3}));
    EXPECT_EQ(eq.executedEvents(), 3u);
}

/** Clocked wake-ups interleave with ordinary events in FIFO order. */
TEST(EventWheel, ClockedTicksShareOrderingWithClosures)
{
    class Ticker : public Clocked
    {
      public:
        explicit Ticker(std::vector<int>& order) : order_(order) {}
        void tick() override { order_.push_back(7); }

      private:
        std::vector<int>& order_;
    };

    EventQueue eq;
    std::vector<int> order;
    Ticker ticker(order);
    eq.schedule(5, [&order] { order.push_back(1); });
    eq.scheduleTick(5, &ticker);
    eq.schedule(5, [&order] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 7, 2}));
}

/** The tick-budget fatal reports pending count and the head tick. */
TEST(EventWheel, TickBudgetReportsPendingAndHeadTick)
{
    EventQueue eq;
    std::function<void()> forever = [&] { eq.schedule(100, forever); };
    eq.schedule(0, forever);
    eq.schedule(40'000, [] {}); // a second pending event at blow-up time
    try {
        eq.run(10'000);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("2 events pending"), std::string::npos) << msg;
        EXPECT_NE(msg.find("head event at tick 10100"),
                  std::string::npos)
            << msg;
    }
}

/** Moved-from events are inert; move transfers the callable. */
TEST(EventWheel, EventMoveSemantics)
{
    int fired = 0;
    Event a([&fired] { ++fired; });
    EXPECT_TRUE(static_cast<bool>(a));
    Event b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(fired, 1);

    Event c;
    EXPECT_FALSE(static_cast<bool>(c));
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(fired, 2);
}

/** Destruction of pending events releases captured resources. */
TEST(EventWheel, PendingEventsAreDestroyedWithTheQueue)
{
    auto token = std::make_shared<int>(42);
    {
        EventQueue eq;
        eq.schedule(10, [token] { (void)*token; });
        eq.schedule(100'000, [token] { (void)*token; }); // far-heap
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

/*
 * A capturing (non-trivially destructible) event is destroyed exactly
 * once on every path it can take through the kernel: use_count returns
 * to 1, never below (a double destroy would also trip ASan).
 */

TEST(EventWheel, FiredEventIsDestroyedOnce)
{
    auto token = std::make_shared<int>(0);
    EventQueue eq;
    eq.schedule(3, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    eq.run();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventWheel, MigratedFarEventIsDestroyedOnce)
{
    auto token = std::make_shared<int>(0);
    EventQueue eq;
    eq.schedule(100'000, [token] { ++*token; });
    EXPECT_EQ(eq.debugSnapshot().farPending, 1u);
    EXPECT_EQ(token.use_count(), 2);
    eq.run();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventWheel, EventsRelocatedByBucketGrowthAreDestroyedOnce)
{
    auto token = std::make_shared<int>(0);
    EventQueue eq;
    for (int i = 0; i < 100; ++i) // one bucket, many reallocations
        eq.schedule(7, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 101);
    eq.run();
    EXPECT_EQ(*token, 100);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventWheel, DeferredAndReplayedEventIsDestroyedOnce)
{
    auto token = std::make_shared<int>(0);
    EventQueue eq;
    LineLockTable locks;
    constexpr Addr line = 0x1000;
    locks.lock(line);
    locks.defer(line, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    // Replay the way the LLC banks do: re-schedule each deferred op.
    for (DeferredOp& op : locks.unlock(line))
        eq.schedule(0, std::move(op));
    EXPECT_EQ(token.use_count(), 2);
    eq.run();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace cbsim
