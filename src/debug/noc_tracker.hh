/**
 * @file
 * In-flight NoC message tracking for forensics and leak checking.
 *
 * The mesh itself keeps no per-message state — a message lives only in
 * the closures of its scheduled hop events — so when a run wedges there
 * is normally nothing to enumerate. When message tracking is enabled
 * (DebugConfig::trackMessagesEffective()), the mesh registers every
 * injected message here and reports each hop, letting the watchdog dump
 * "which messages are in flight and where" and the invariant checker
 * assert that nothing is still undelivered once the queue drains.
 *
 * Slot-based: onInject returns a slot id the mesh threads through its
 * hop closures; entries are recycled via a free list so steady state
 * allocates nothing.
 */

#ifndef CBSIM_DEBUG_NOC_TRACKER_HH
#define CBSIM_DEBUG_NOC_TRACKER_HH

#include <cstdint>
#include <vector>

#include "noc/message.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace cbsim {

class NocTracker
{
  public:
    std::uint32_t
    onInject(const Message& msg, Tick now)
    {
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(entries_.size());
            entries_.push_back(Entry{});
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        Entry& e = entries_[slot];
        e.msg = msg;
        e.at = msg.src;
        e.injectedAt = now;
        e.live = true;
        ++inFlight_;
        return slot;
    }

    void
    onHop(std::uint32_t slot, NodeId at)
    {
        entries_[slot].at = at;
    }

    void
    onDeliver(std::uint32_t slot)
    {
        CBSIM_ASSERT(entries_[slot].live,
                     "NocTracker: double delivery of slot ", slot);
        entries_[slot].live = false;
        free_.push_back(slot);
        --inFlight_;
    }

    std::size_t inFlight() const { return inFlight_; }

    /** Visit every undelivered message: fn(msg, currentNode, injectedAt). */
    template <typename Fn>
    void
    forEachInFlight(Fn&& fn) const
    {
        for (const Entry& e : entries_) {
            if (e.live)
                fn(e.msg, e.at, e.injectedAt);
        }
    }

  private:
    struct Entry
    {
        Message msg;
        NodeId at = 0;
        Tick injectedAt = 0;
        bool live = false;
    };

    std::vector<Entry> entries_;
    std::vector<std::uint32_t> free_;
    std::size_t inFlight_ = 0;
};

} // namespace cbsim

#endif // CBSIM_DEBUG_NOC_TRACKER_HH
