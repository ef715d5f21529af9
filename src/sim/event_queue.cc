#include "sim/event_queue.hh"

#include <iterator>

namespace cbsim {

void
EventQueue::pushFar(Tick when, Event ev)
{
    std::uint32_t slot;
    if (farFree_.empty()) {
        slot = static_cast<std::uint32_t>(farSlots_.size());
        farSlots_.push_back(std::move(ev));
    } else {
        slot = farFree_.back();
        farFree_.pop_back();
        farSlots_[slot] = std::move(ev);
    }
    far_.push_back(FarKey{when, nextSeq_++, slot});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
}

void
EventQueue::migrateFar()
{
    while (!far_.empty() && far_.front().when - now_ < wheelSize) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        const FarKey key = far_.back();
        far_.pop_back();
        const std::size_t idx = key.when & (wheelSize - 1);
        Bucket& b = buckets_[idx];
        if (b.empty())
            setOccupied(idx);
        b.push_back(std::move(farSlots_[key.slot]));
        farFree_.push_back(key.slot);
        ++wheelCount_;
    }
}

void
EventQueue::fireEpochs()
{
    // Epoch boundaries cut *before* the bucket at now_ dispatches, so
    // a window [b-e, b) contains exactly the activity of ticks < b —
    // the series is half-open and identical however sparse the queue
    // is. A jump over several boundaries fires once per boundary.
    while (now_ >= nextEpochAt_) {
        const Tick boundary = nextEpochAt_;
        nextEpochAt_ += epochEvery_;
        epochFn_(boundary);
    }
}

void
EventQueue::dispatchBucket()
{
    // Keep the disabled epoch cost to this one predicted-false
    // compare: the boundary walk lives out of line (fireEpochs) so
    // its std::function call doesn't deoptimize the dispatch loop.
    if (now_ >= nextEpochAt_) [[unlikely]]
        fireEpochs();
    // Dispatch the whole bucket at now_ in one pass: swap its
    // vector into the scratch buffer and invoke the events in
    // place, so nothing is moved per event. Same-tick re-entrant
    // schedules land in the bucket's (fresh) vector — setting the
    // occupancy bit again — and are picked up by the next
    // advance(), which stays on this tick.
    const std::size_t idx = now_ & (wheelSize - 1);
    Bucket& b = buckets_[idx];
    clearOccupied(idx);
    scratch_.swap(b);
    const std::size_t count = scratch_.size();
    wheelCount_ -= count;
    executed_ += count;
    Event* ev = scratch_.data();
    Event* const end = ev + count;
    try {
        for (; ev != end; ++ev)
            (*ev)();
    } catch (...) {
        // The event at ev threw and counts as run; the ones after it
        // go back to the head of the bucket, ahead of any same-tick
        // events it appended, so a later run() resumes in order and
        // the counts a forensic dump reads stay true.
        const std::size_t unrun = static_cast<std::size_t>(end - ev) - 1;
        executed_ -= unrun;
        wheelCount_ += unrun;
        b.insert(b.begin(), std::make_move_iterator(ev + 1),
                 std::make_move_iterator(end));
        if (!b.empty())
            setOccupied(idx);
        scratch_.clear();
        throw;
    }
    scratch_.clear();
    if (b.empty()) {
        // No re-entrant appends: hand the (larger) capacity back
        // so the bucket stays allocation-free next time around.
        b.swap(scratch_);
    }
    if (executed_ >= nextPollAt_) {
        nextPollAt_ = executed_ + pollEvery_;
        pollFn_();
    }
}

Tick
EventQueue::run(Tick maxTicks)
{
    while (advance()) {
        if (now_ > maxTicks) {
            fatal("simulation exceeded tick budget ", maxTicks,
                  " (possible deadlock or livelock); ", pendingEvents(),
                  " events pending, head event at tick ", now_);
        }
        dispatchBucket();
    }
    return now_;
}

EventQueue::DebugSnapshot
EventQueue::debugSnapshot(std::size_t maxHeadTicks) const
{
    DebugSnapshot snap;
    snap.now = now_;
    snap.executed = executed_;
    snap.pending = pendingEvents();
    snap.farPending = far_.size();
    if (!far_.empty())
        snap.farMin = far_.front().when;
    if (wheelCount_ != 0) {
        // Walk occupied buckets in circular (= tick) order from now_.
        std::size_t idx = now_ & (wheelSize - 1);
        std::size_t seen = 0;
        for (std::size_t i = 0; i < wheelSize && seen < maxHeadTicks;
             ++i) {
            const std::size_t b = (idx + i) & (wheelSize - 1);
            const Bucket& bucket = buckets_[b];
            const std::size_t count = bucket.size();
            if (count == 0)
                continue;
            // Recover the bucket's absolute tick: it is the unique tick
            // in [now_, now_ + wheelSize) congruent to b.
            Tick when = (now_ & ~(wheelSize - 1)) | b;
            if (when < now_)
                when += wheelSize;
            snap.headWindow.emplace_back(when, count);
            ++seen;
        }
    }
    return snap;
}

} // namespace cbsim
