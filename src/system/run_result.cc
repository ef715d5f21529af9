#include "system/run_result.hh"

#include <cmath>
#include <sstream>

namespace cbsim {

std::uint64_t
RunResult::sumWhere(const StatSet& stats, const std::string& prefix,
                    const std::string& suffix)
{
    return stats.sumWhere(prefix, suffix);
}

RunResult
RunResult::fromStats(const StatSet& stats, const SyncStats& sync_stats,
                     Tick cycles)
{
    RunResult r;
    r.cycles = cycles;
    r.llcAccesses = sumWhere(stats, "llc.", ".accesses");
    r.llcSyncAccesses = sumWhere(stats, "llc.", ".sync_accesses");
    r.l1Accesses = sumWhere(stats, "l1.", ".accesses");
    r.cbdirAccesses = sumWhere(stats, "llc.", ".cbdir_accesses");
    r.flitHops = stats.counter("noc.flit_hops");
    r.packets = stats.counter("noc.packets");
    r.memReads = stats.counter("mem.reads");
    r.instructions = sumWhere(stats, "core.", ".instructions");
    r.invalidationsSent = sumWhere(stats, "llc.", ".invs_sent");
    r.cbWakeups = sumWhere(stats, "llc.", ".wakes_sent");
    r.cbdirEvictions = sumWhere(stats, "llc.", ".cbdir.evictions");
    r.stallCycles = sumWhere(stats, "core.", ".stall_cycles");
    r.cbBlockedCycles = sumWhere(stats, "core.", ".cb_blocked_cycles");

    for (std::size_t k = 0; k < SyncStats::numKinds; ++k) {
        const auto& h = sync_stats.latency[k];
        r.sync[k].completions = h.count();
        r.sync[k].meanLatency = h.mean();
        r.sync[k].totalLatency = h.sum();
        r.sync[k].maxLatency = h.max();
        r.sync[k].p50Latency = h.percentile(50.0);
        r.sync[k].p95Latency = h.percentile(95.0);
        r.sync[k].p99Latency = h.percentile(99.0);
    }
    return r;
}

namespace {

/** Percentile rounded to whole cycles for the scalar-field table. */
std::uint64_t
roundedLatency(double v)
{
    return static_cast<std::uint64_t>(std::llround(v));
}

} // namespace

std::vector<std::pair<const char*, std::uint64_t>>
RunResult::scalarFields() const
{
    const auto& acq = sync[static_cast<std::size_t>(SyncKind::Acquire)];
    const auto& bar = sync[static_cast<std::size_t>(SyncKind::Barrier)];
    const auto& wait = sync[static_cast<std::size_t>(SyncKind::Wait)];
    return {
        {"cycles", cycles},
        {"llc_accesses", llcAccesses},
        {"llc_sync_accesses", llcSyncAccesses},
        {"l1_accesses", l1Accesses},
        {"cbdir_accesses", cbdirAccesses},
        {"flit_hops", flitHops},
        {"packets", packets},
        {"mem_reads", memReads},
        {"instructions", instructions},
        {"invalidations_sent", invalidationsSent},
        {"cb_wakeups", cbWakeups},
        {"cbdir_evictions", cbdirEvictions},
        {"stall_cycles", stallCycles},
        {"cb_blocked_cycles", cbBlockedCycles},
        {"sync_acquire_p50", roundedLatency(acq.p50Latency)},
        {"sync_acquire_p95", roundedLatency(acq.p95Latency)},
        {"sync_acquire_p99", roundedLatency(acq.p99Latency)},
        {"sync_barrier_p50", roundedLatency(bar.p50Latency)},
        {"sync_barrier_p95", roundedLatency(bar.p95Latency)},
        {"sync_barrier_p99", roundedLatency(bar.p99Latency)},
        {"sync_wait_p50", roundedLatency(wait.p50Latency)},
        {"sync_wait_p95", roundedLatency(wait.p95Latency)},
        {"sync_wait_p99", roundedLatency(wait.p99Latency)},
    };
}

std::string
RunResult::summary() const
{
    std::ostringstream os;
    os << "cycles=" << cycles << " llc=" << llcAccesses
       << " llc_sync=" << llcSyncAccesses << " l1=" << l1Accesses
       << " flit_hops=" << flitHops << " packets=" << packets
       << " mem_reads=" << memReads;
    return os.str();
}

} // namespace cbsim
