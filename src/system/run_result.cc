#include "system/run_result.hh"

#include <cmath>
#include <sstream>

namespace cbsim {

namespace {

/** Percentile rounded to whole cycles for the scalar-field table. */
std::uint64_t
roundedLatency(double v)
{
    return static_cast<std::uint64_t>(std::llround(v));
}

} // namespace

const std::array<std::pair<const char*, std::uint64_t RunResult::*>, 14>
    RunResult::kCounters = {{
        {"cycles", &RunResult::cycles},
        {"llc_accesses", &RunResult::llcAccesses},
        {"llc_sync_accesses", &RunResult::llcSyncAccesses},
        {"l1_accesses", &RunResult::l1Accesses},
        {"cbdir_accesses", &RunResult::cbdirAccesses},
        {"flit_hops", &RunResult::flitHops},
        {"packets", &RunResult::packets},
        {"mem_reads", &RunResult::memReads},
        {"instructions", &RunResult::instructions},
        {"invalidations_sent", &RunResult::invalidationsSent},
        {"cb_wakeups", &RunResult::cbWakeups},
        {"cbdir_evictions", &RunResult::cbdirEvictions},
        {"stall_cycles", &RunResult::stallCycles},
        {"cb_blocked_cycles", &RunResult::cbBlockedCycles},
    }};

std::vector<std::pair<const char*, std::uint64_t>>
RunResult::scalarFields() const
{
    const auto& acq = sync[static_cast<std::size_t>(SyncKind::Acquire)];
    const auto& bar = sync[static_cast<std::size_t>(SyncKind::Barrier)];
    const auto& wait = sync[static_cast<std::size_t>(SyncKind::Wait)];
    std::vector<std::pair<const char*, std::uint64_t>> fields;
    fields.reserve(kCounters.size() + 9);
    for (const auto& [name, member] : kCounters)
        fields.emplace_back(name, this->*member);
    fields.insert(fields.end(), {
        {"sync_acquire_p50", roundedLatency(acq.p50Latency)},
        {"sync_acquire_p95", roundedLatency(acq.p95Latency)},
        {"sync_acquire_p99", roundedLatency(acq.p99Latency)},
        {"sync_barrier_p50", roundedLatency(bar.p50Latency)},
        {"sync_barrier_p95", roundedLatency(bar.p95Latency)},
        {"sync_barrier_p99", roundedLatency(bar.p99Latency)},
        {"sync_wait_p50", roundedLatency(wait.p50Latency)},
        {"sync_wait_p95", roundedLatency(wait.p95Latency)},
        {"sync_wait_p99", roundedLatency(wait.p99Latency)},
    });
    return fields;
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
