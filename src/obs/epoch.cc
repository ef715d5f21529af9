#include "obs/epoch.hh"

#include "obs/trace_export.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

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

EpochSampler::EpochSampler(const StatsRegistry& stats,
                           std::function<std::uint64_t()> blocked_cores)
    : stats_(stats), blockedCores_(std::move(blocked_cores))
{}

void
EpochSampler::install(EventQueue& eq, Tick epochTicks)
{
    eq.setEpochHook(epochTicks,
                    [this](Tick boundary) { onEpoch(boundary); });
}

void
EpochSampler::onEpoch(Tick boundary)
{
    const std::uint64_t llc = stats_.sumWhere("llc.", ".accesses");
    const std::uint64_t flits = stats_.counter("noc.flit_hops");
    const std::uint64_t packets = stats_.counter("noc.packets");

    EpochRow row;
    row.tick = boundary;
    row.llcAccesses = llc - lastLlc_;
    row.flitHops = flits - lastFlitHops_;
    row.packets = packets - lastPackets_;
    row.blockedCores = blockedCores_();
    rows_.push_back(row);

    lastLlc_ = llc;
    lastFlitHops_ = flits;
    lastPackets_ = packets;

    if (trace_ != nullptr) {
        trace_->counter("llc_accesses", boundary, row.llcAccesses);
        trace_->counter("flit_hops", boundary, row.flitHops);
        trace_->counter("packets", boundary, row.packets);
        trace_->counter("blocked_cores", boundary, row.blockedCores);
    }
}

} // namespace cbsim
