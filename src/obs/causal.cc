#include "obs/causal.hh"

#include <algorithm>
#include <unordered_map>

#include "mem/addr.hh"

namespace cbsim {

// One name per line so scripts/check_docs.sh can extract the list and
// enforce that docs/RESULTS.md and docs/OBSERVABILITY.md document every
// causal[] field.
const std::vector<std::string> kCausalFields = {
    "segment",
    "cycles",
    "count",
    "flit_hops",
    "p50",
    "p95",
    "p99",
};

const char*
causalSegmentName(CausalSegment seg)
{
    switch (seg) {
      case CausalSegment::SpinPoll:
        return "spin_poll";
      case CausalSegment::NocRequest:
        return "noc_request";
      case CausalSegment::DirQueue:
        return "dir_queue";
      case CausalSegment::NocWake:
        return "noc_wake";
      case CausalSegment::CoreWakeup:
        return "core_wakeup";
      case CausalSegment::WakeEvictRetry:
        return "wake_evict_retry";
      case CausalSegment::SyncAccess:
        return "sync_access";
      case CausalSegment::MemOther:
        return "mem_other";
      case CausalSegment::NumSegments:
        break;
    }
    return "?";
}

namespace {

/** Per-segment accumulator folded into one CausalRow at the end. */
struct SegmentAcc
{
    std::uint64_t cycles = 0;
    std::uint64_t count = 0;
    HistogramData hist;

    void
    add(Tick span)
    {
        cycles += span;
        ++count;
        hist.sample(span);
    }
};

} // namespace

std::vector<CausalRow>
CausalTracker::rows() const
{
    // Re-sort the records by a (core, tick) total order: the stitcher
    // walks each core's episodes in time, while components append in
    // dispatch order. A core has one outstanding memory op, so
    // (core, issue) is unique for stalls; stable_sort keeps transition
    // ties at (core, tick) in execution order.
    std::vector<CausalShard::Stall> stalls = shard_.stalls;
    std::stable_sort(stalls.begin(), stalls.end(),
                     [](const CausalShard::Stall& a,
                        const CausalShard::Stall& b) {
                         if (a.core != b.core)
                             return a.core < b.core;
                         return a.issue < b.issue;
                     });
    std::vector<CausalShard::Transition> trans = shard_.transitions;
    std::stable_sort(trans.begin(), trans.end(),
                     [](const CausalShard::Transition& a,
                        const CausalShard::Transition& b) {
                         if (a.core != b.core)
                             return a.core < b.core;
                         return a.tick < b.tick;
                     });

    SegmentAcc acc[kNumCausalSegments];
    auto seg = [&acc](CausalSegment s) -> SegmentAcc& {
        return acc[static_cast<std::size_t>(s)];
    };

    // Most recent wake's spuriousness per (current core, line): a
    // non-parked stall following a spurious wake (capacity eviction,
    // spin-watch timeout) of its line is a forced retry, not voluntary
    // spinning.
    std::unordered_map<Addr, bool> lastWakeSpurious;
    CoreId mapCore = invalidCore;

    std::size_t ti = 0; // transition cursor, advances with the stalls
    for (const CausalShard::Stall& st : stalls) {
        if (st.core != mapCore) {
            lastWakeSpurious.clear();
            mapCore = st.core;
            // Skip transitions of cores that recorded no stalls.
            while (ti < trans.size() && trans[ti].core < st.core)
                ++ti;
        }
        // Drop leftovers from before this window (defensive: every
        // park/wake should fall inside a stall window).
        while (ti < trans.size() && trans[ti].core == st.core &&
               trans[ti].tick < st.issue)
            ++ti;

        const Addr line = AddrLayout::lineAlign(st.addr);
        // Collect this window's park/wake episodes.
        struct Episode
        {
            Tick park = 0;
            Tick wake = 0;
            bool spurious = false;
        };
        std::vector<Episode> episodes;
        bool parked = false;
        Tick parkTick = 0;
        while (ti < trans.size() && trans[ti].core == st.core &&
               trans[ti].tick <= st.complete) {
            const CausalShard::Transition& t = trans[ti];
            ++ti;
            if (AddrLayout::lineAlign(t.key) != line)
                continue; // defensive: stray transition on another line
            if (!t.wake) {
                lastWakeSpurious.erase(line);
                if (!parked) {
                    parked = true;
                    parkTick = t.tick;
                }
            } else {
                lastWakeSpurious[line] = t.spurious;
                if (parked) {
                    episodes.push_back(
                        Episode{parkTick, t.tick, t.spurious});
                    parked = false;
                }
            }
        }
        if (parked) {
            // Unmatched trailing park: close it at window end so the
            // partition stays exact.
            episodes.push_back(Episode{parkTick, st.complete, false});
        }

        const Tick span = st.complete - st.issue;
        if (episodes.empty()) {
            auto it = lastWakeSpurious.find(line);
            if (it != lastWakeSpurious.end() && it->second)
                seg(CausalSegment::WakeEvictRetry).add(span);
            else if (st.spin || st.cb)
                seg(CausalSegment::SpinPoll).add(span);
            else if (st.sync)
                seg(CausalSegment::SyncAccess).add(span);
            else
                seg(CausalSegment::MemOther).add(span);
            continue;
        }

        // Parked window: exact split along the episode chain.
        seg(CausalSegment::NocRequest).add(episodes.front().park -
                                           st.issue);
        for (std::size_t i = 0; i < episodes.size(); ++i) {
            seg(CausalSegment::DirQueue)
                .add(episodes[i].wake - episodes[i].park);
            if (i + 1 < episodes.size()) {
                // Gap between a wake and the re-park: a forced retry
                // when the wake was spurious, voluntary re-polling
                // otherwise.
                const Tick gap = episodes[i + 1].park - episodes[i].wake;
                seg(episodes[i].spurious ? CausalSegment::WakeEvictRetry
                                         : CausalSegment::SpinPoll)
                    .add(gap);
            }
        }
        const Tick tail = st.complete - episodes.back().wake;
        const Tick wakeup = tail < 1 ? tail : 1;
        seg(CausalSegment::CoreWakeup).add(wakeup);
        seg(CausalSegment::NocWake).add(tail - wakeup);
    }

    std::vector<CausalRow> rows;
    rows.reserve(kNumCausalSegments);
    for (std::size_t i = 0; i < kNumCausalSegments; ++i) {
        const auto s = static_cast<CausalSegment>(i);
        CausalRow r;
        r.segment = causalSegmentName(s);
        r.cycles = acc[i].cycles;
        r.count = acc[i].count;
        if (s == CausalSegment::NocRequest)
            r.flitHops = shard_.requestFlitHops;
        else if (s == CausalSegment::NocWake)
            r.flitHops = shard_.wakeFlitHops;
        r.p50 = acc[i].hist.p50();
        r.p95 = acc[i].hist.p95();
        r.p99 = acc[i].hist.p99();
        rows.push_back(std::move(r));
    }
    return rows;
}

} // namespace cbsim
