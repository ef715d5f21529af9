#include "obs/epoch.hh"

#include "obs/trace_export.hh"
#include "sim/event_queue.hh"

namespace cbsim {

// One name per line: scripts/check_docs.sh extracts these to enforce
// that docs/OBSERVABILITY.md documents every epoch field.
const std::array<const char*, 5> EpochSampler::kFieldNames = {
    "tick",
    "llc_accesses",
    "flit_hops",
    "packets",
    "blocked_cores",
};

EpochSampler::EpochSampler(Probe probe) : probe_(std::move(probe)) {}

void
EpochSampler::install(EventQueue& eq, Tick epochTicks)
{
    eq.setEpochHook(epochTicks,
                    [this](Tick boundary) { onEpoch(boundary); });
}

void
EpochSampler::onEpoch(Tick boundary)
{
    const EpochRow now = probe_();

    EpochRow row;
    row.tick = boundary;
    row.llcAccesses = now.llcAccesses - last_.llcAccesses;
    row.flitHops = now.flitHops - last_.flitHops;
    row.packets = now.packets - last_.packets;
    row.blockedCores = now.blockedCores;
    rows_.push_back(row);
    last_ = now;

    if (trace_ != nullptr) {
        trace_->counter("llc_accesses", boundary, row.llcAccesses);
        trace_->counter("flit_hops", boundary, row.flitHops);
        trace_->counter("packets", boundary, row.packets);
        trace_->counter("blocked_cores", boundary, row.blockedCores);
    }
}

} // namespace cbsim
