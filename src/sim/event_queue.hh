/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The whole simulator is driven by a single EventQueue. Components
 * schedule callables at absolute ticks; events scheduled for the same tick
 * fire in scheduling order (a stable queue), which keeps runs bit-exact
 * reproducible for a given seed.
 *
 * Internally the queue is two-level. The near future — a window of
 * wheelSize ticks starting at wheelBase_ — lives in a timing wheel: one
 * bucket per tick, each bucket a plain vector dispatched by index, so
 * same-tick FIFO order is structural rather than enforced by a sequence
 * comparator. A two-level occupancy bitmap (a summary word over
 * per-64-bucket words) makes finding the next pending tick a pair of
 * count-trailing-zeros operations, so advancing over sparse stretches
 * (back-off spins, barrier waits) costs the same as advancing one tick.
 * Events beyond the window (spin-park watchdogs, mostly) overflow to a
 * (when, seq)-ordered binary far-heap. The window stays fixed until the
 * wheel drains completely; only then does the queue rebase onto the
 * far-heap's minimum and migrate every far event that now fits, popping
 * them in (when, seq) order so the global FIFO contract survives the
 * hand-off. Because migration happens only at points where *all*
 * pending events sit in the far-heap, no wheel-vs-heap interleaving
 * case exists.
 *
 * Buckets retain their vector capacity across reuse, so steady-state
 * operation performs no allocation at all: schedule is an inline
 * placement-construct into an existing buffer, dispatch is an index
 * increment (see sim/event.hh for the allocation-free Event itself).
 */

#ifndef CBSIM_SIM_EVENT_QUEUE_HH
#define CBSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace cbsim {

/**
 * Type-erased event callback. Kept for signatures that store callbacks
 * long-term (completion handlers, deferred replays); transient
 * scheduling goes through the templated schedule() overloads and never
 * materializes a std::function.
 */
using EventFn = std::function<void()>;

/**
 * A stable discrete-event queue ordered by (tick, insertion sequence).
 *
 * Typical use:
 * @code
 *   EventQueue eq;
 *   eq.schedule(10, [&]{ ... });
 *   eq.run();
 * @endcode
 */
class EventQueue
{
  public:
    /**
     * Ticks covered by the timing wheel window (power of two, at most
     * 64*64 so the occupancy bitmap stays two levels deep). Bucket
     * structs cycle through the window as time advances, so the array
     * must stay cache-resident: 256 buckets is 8 KB and keeps every
     * recurring short delay (pipeline steps, NoC hops, the 160-cycle
     * memory latency) in the wheel. Larger windows measurably lose
     * more to cache misses than they save in far-heap traffic — deep
     * exponential back-off and spin-park watchdogs take the far-heap
     * path by design.
     */
    static constexpr Tick wheelSize = 256;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events executed so far. */
    std::uint64_t executedEvents() const { return executed_; }

    /** Number of events currently pending. */
    std::size_t pendingEvents() const { return wheelCount_ + far_.size(); }

    /**
     * Install a hook invoked from run() roughly every @p everyEvents
     * executed events (checked once per dispatched bucket, so the
     * disabled cost is a single compare). The watchdog uses this to
     * poll liveness and run interval invariant checks without ever
     * scheduling events of its own — a self-rescheduling check event
     * would keep the queue from draining and break quiesce detection.
     *
     * The hook runs between buckets (never mid-event) and may throw;
     * pass nullptr to remove it.
     */
    void
    setPollHook(std::uint64_t everyEvents, EventFn fn)
    {
        pollFn_ = std::move(fn);
        pollEvery_ = everyEvents == 0 ? 1 : everyEvents;
        nextPollAt_ =
            pollFn_ ? executed_ + pollEvery_ : ~std::uint64_t{0};
    }

    /**
     * Install a hook invoked from run() at every multiple of
     * @p everyTicks of simulated time (checked once per dispatched
     * bucket, so the disabled cost is a single compare — the same
     * pattern as setPollHook, but keyed on ticks rather than executed
     * events). The epoch sampler uses this to cut deterministic
     * time-series windows without scheduling events of its own.
     *
     * The hook receives the epoch's boundary tick. When the queue jumps
     * a sparse stretch spanning several boundaries, the hook fires once
     * per boundary (back-to-back), so the series stays uniform. Runs
     * between buckets, never mid-event; pass nullptr to remove.
     */
    void
    setEpochHook(Tick everyTicks, std::function<void(Tick)> fn)
    {
        epochFn_ = std::move(fn);
        epochEvery_ = everyTicks == 0 ? 1 : everyTicks;
        nextEpochAt_ = epochFn_ ? now_ + epochEvery_ : ~Tick{0};
    }

    /** Head-of-queue picture for forensic dumps (sim layer stays
     *  JSON-free; debug/forensics serializes this). */
    struct DebugSnapshot
    {
        Tick now = 0;
        std::uint64_t executed = 0;
        std::size_t pending = 0;
        std::size_t farPending = 0;
        Tick farMin = 0;        ///< valid iff farPending > 0
        /** (tick, event count) for the next few occupied wheel ticks. */
        std::vector<std::pair<Tick, std::size_t>> headWindow;
    };

    DebugSnapshot debugSnapshot(std::size_t maxHeadTicks = 8) const;

    /**
     * Schedule @p fn to fire at absolute tick @p when. The callable is
     * constructed directly in its bucket slot — no intermediate Event
     * move on the hot path.
     * @pre when >= now()
     */
    template <typename F>
    void
    scheduleAt(Tick when, F&& fn)
    {
        CBSIM_ASSERT(when >= now_, "scheduling into the past (when=", when,
                     " now=", now_, ")");
        if (when - wheelBase_ < wheelSize) {
            const std::size_t idx = when & (wheelSize - 1);
            Bucket& b = buckets_[idx];
            if (b.empty())
                setOccupied(idx);
            b.emplace_back(std::forward<F>(fn));
            ++wheelCount_;
        } else {
            pushFar(when, Event(std::forward<F>(fn)));
        }
    }

    /** Schedule @p fn to fire @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F&& fn)
    {
        scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Fast path for per-tick objects: wake @p obj (obj->tick()) after
     * @p delay ticks. Equivalent to schedule(delay, [obj]{obj->tick();})
     * but the event carries no capture and shares one trampoline, and
     * the call site documents that @p obj self-paces on the queue.
     * Ordering relative to ordinary events is identical — clocked
     * wake-ups go through the same buckets.
     */
    void
    scheduleTick(Tick delay, Clocked* obj)
    {
        scheduleAt(now_ + delay, ClockedTick{obj});
    }

    /**
     * Run until the queue drains or @p maxTicks elapses.
     *
     * @param maxTicks Absolute tick budget; exceeding it is a fatal error
     *                 (livelock/deadlock detector for tests and benches).
     * @return The tick at which the queue drained.
     */
    Tick run(Tick maxTicks = maxTick);

  private:
    /** One tick's worth of events, in dispatch order. */
    using Bucket = std::vector<Event>;

    /**
     * Far-heap entry: ordering key plus the index of the event's slot
     * in farSlots_. Keeping the heap to 24-byte keys (the events stay
     * put in their slots) makes every sift cheap; the event itself
     * moves exactly once, slot -> bucket, at migration time. seq
     * restores FIFO among same-tick far events.
     */
    struct FarKey
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Min-heap order for std::push_heap/pop_heap: earliest at front. */
    struct FarLater
    {
        bool
        operator()(const FarKey& a, const FarKey& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Park @p ev in a slot and push its key (out-of-line: cold path). */
    void pushFar(Tick when, Event ev);

    static constexpr std::size_t bitmapWords = wheelSize / 64;
    static_assert(bitmapWords <= 64,
                  "one summary word must cover the bitmap");

    void
    setOccupied(std::size_t idx)
    {
        occupied_[idx >> 6] |= 1ull << (idx & 63);
        summary_ |= 1ull << (idx >> 6);
    }

    void
    clearOccupied(std::size_t idx)
    {
        const std::size_t w = idx >> 6;
        if ((occupied_[w] &= ~(1ull << (idx & 63))) == 0)
            summary_ &= ~(1ull << w);
    }

    /**
     * Index of the occupied bucket nearest to @p from in circular
     * order (possibly @p from itself). @pre wheelCount_ > 0. Every
     * pending wheel event's tick is in [now_, wheelBase_ + wheelSize),
     * and that half-open range covers each bucket index exactly once,
     * so circular distance from now_'s bucket equals tick order.
     */
    std::size_t
    nextOccupied(std::size_t from) const
    {
        const std::size_t w = from >> 6;
        const std::uint64_t first =
            occupied_[w] & (~0ull << (from & 63));
        if (first)
            return (w << 6) + std::countr_zero(first);
        // Remaining words in circular order, via the summary word:
        // strictly after w first, then wrapping to w itself (its low
        // bits — ticks that wrapped past the window edge).
        const std::uint64_t later =
            w + 1 < bitmapWords ? summary_ & (~0ull << (w + 1)) : 0;
        if (later) {
            const std::size_t w2 = std::countr_zero(later);
            return (w2 << 6) + std::countr_zero(occupied_[w2]);
        }
        const std::uint64_t wrapped = summary_ & ((2ull << w) - 1);
        CBSIM_ASSERT(wrapped, "occupancy bitmap out of sync");
        const std::size_t w2 = std::countr_zero(wrapped);
        const std::uint64_t bits =
            w2 == w ? occupied_[w] & ~(~0ull << (from & 63))
                    : occupied_[w2];
        return (w2 << 6) + std::countr_zero(bits);
    }

    /**
     * Advance now_ to the next pending event's tick (leaving the event
     * at its bucket head). Returns false when the queue is empty.
     */
    bool
    advance()
    {
        if (wheelCount_ == 0) {
            if (far_.empty())
                return false;
            migrateFar();
        }
        const std::size_t c = now_ & (wheelSize - 1);
        now_ += (nextOccupied(c) - c) & (wheelSize - 1);
        return true;
    }

    /**
     * The wheel is empty and the far-heap is not: jump the window to
     * the far-heap's minimum and migrate everything that fits, in
     * (when, seq) order so per-bucket FIFO equals global FIFO.
     */
    void migrateFar();

    /** Dispatch the whole bucket at now_ (run()'s loop body). */
    void dispatchBucket();

    std::array<Bucket, wheelSize> buckets_;
    /** Occupancy bitmap: bit per bucket, plus a bit-per-word summary. */
    std::array<std::uint64_t, bitmapWords> occupied_{};
    std::uint64_t summary_ = 0;
    std::vector<FarKey> far_;          ///< binary heap of keys
    std::vector<Event> farSlots_;      ///< parked far events
    std::vector<std::uint32_t> farFree_; ///< recyclable slot indices
    /**
     * run()'s dispatch buffer: the current bucket's vector is swapped
     * in here so events are invoked in place (no per-event move) while
     * same-tick re-entrant schedules append to the bucket's fresh
     * vector. One shared buffer serves every bucket, so its capacity
     * converges on the busiest tick's population and stays there.
     */
    std::vector<Event> scratch_;
    Tick wheelBase_ = 0;  ///< first tick of the wheel window
    Tick now_ = 0;        ///< invariant: wheelBase_ <= now_ <= base+size
    std::size_t wheelCount_ = 0; ///< pending events in the wheel
    std::uint64_t nextSeq_ = 0;  ///< far events only; monotonic
    std::uint64_t executed_ = 0;
    /** Next executed_ value at which run() calls pollFn_ (max = never). */
    std::uint64_t nextPollAt_ = ~std::uint64_t{0};
    std::uint64_t pollEvery_ = 0;
    EventFn pollFn_;
    /** Cold path of the epoch hook: fire every boundary <= now_. */
    [[gnu::noinline]] void fireEpochs();

    /** Next tick boundary at which run() calls epochFn_ (max = never). */
    Tick nextEpochAt_ = ~Tick{0};
    Tick epochEvery_ = 0;
    std::function<void(Tick)> epochFn_;
};

} // namespace cbsim

#endif // CBSIM_SIM_EVENT_QUEUE_HH
