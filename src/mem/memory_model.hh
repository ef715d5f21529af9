/**
 * @file
 * Off-chip memory model: fixed access latency, access counting.
 *
 * The paper's Table 2 specifies a flat 160-cycle memory access time; the
 * evaluation metrics (LLC accesses, network traffic, sync latency) do not
 * depend on DRAM microarchitecture, so a fixed-latency model is faithful.
 */

#ifndef CBSIM_MEM_MEMORY_MODEL_HH
#define CBSIM_MEM_MEMORY_MODEL_HH

#include <utility>

#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace cbsim {

/** Fixed-latency memory attached below the LLC banks. */
class MemoryModel
{
  public:
    MemoryModel(EventQueue& eq, Tick latency) : eq_(eq), latency_(latency)
    {}

    /**
     * Issue a read of @p addr's line; @p done fires after the latency.
     * Templated so the completion schedules allocation-free.
     */
    template <typename F>
    void
    read(Addr addr, F&& done)
    {
        (void)addr;
        reads_.inc();
        eq_.schedule(latency_, std::forward<F>(done));
    }

    /** Issue a (write-back) write; fire-and-forget. */
    void
    write(Addr addr)
    {
        (void)addr;
        writes_.inc();
    }

    Tick latency() const { return latency_; }
    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }

  private:
    EventQueue& eq_;
    Tick latency_;
    Counter reads_;
    Counter writes_;
};

} // namespace cbsim

#endif // CBSIM_MEM_MEMORY_MODEL_HH
