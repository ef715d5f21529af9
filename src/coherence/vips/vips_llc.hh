/**
 * @file
 * LLC bank for the VIPS-M protocol with the integrated callback
 * directory (paper Fig. 2).
 *
 * Racy accesses are serialized here: loads-through and stores-through
 * operate directly on the bank; callback reads (GetCB) consult the
 * callback directory first and may park until a write wakes them; RMWs
 * execute atomically at the bank (MSHR line locking covers the only
 * multi-event case, the memory fill). A parked callback RMW re-executes
 * against the then-current value when woken, reproducing the premature
 * wake-up behaviour of the paper's Figure 5.
 */

#ifndef CBSIM_COHERENCE_VIPS_VIPS_LLC_HH
#define CBSIM_COHERENCE_VIPS_VIPS_LLC_HH

#include <map>
#include <unordered_map>

#include "coherence/callback/callback_directory.hh"
#include "coherence/controller.hh"
#include "coherence/mesi/mesi_llc.hh" // LlcTiming
#include "mem/cache_array.hh"
#include "mem/data_store.hh"
#include "mem/memory_model.hh"
#include "mem/mshr.hh"
#include "noc/mesh.hh"

namespace cbsim {

class AttributionTable;
class CausalTracker;
class FaultInjector;
class TraceExporter;

/** One VIPS LLC bank with its slice of the callback directory. */
class VipsLlcBank : public LlcBank
{
  public:
    VipsLlcBank(BankId bank, EventQueue& eq, Mesh& mesh, DataStore& data,
                MemoryModel& memory, const CacheGeometry& geom,
                const LlcTiming& timing, unsigned cb_entries,
                Tick cb_latency, unsigned num_cores);

    void handleMessage(const Message& msg) override;

    /** Callback-directory introspection for tests. */
    const CallbackDirectory& directory() const { return cbdir_; }

    /** Number of currently parked waiters (for tests). */
    std::size_t parkedWaiters() const;

    /** Every parked waiter as (word, core); checker/forensics view. */
    std::vector<std::pair<Addr, CoreId>> parkedWaiterList() const;

    /** MSHR introspection for the leak invariant. */
    const LineLockTable& lockTable() const { return locks_; }

    /**
     * Enable eviction-storm fault injection: before each directory
     * operation, the injector may force-evict a live-waiter entry
     * (paper §3: waiters are satisfied with the current value and the
     * bits are lost). Null (default) costs one compare per op.
     */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /**
     * Enable trace export: every park in and wake from this bank's
     * callback directory becomes an instant event on its track. Null
     * (default) costs one compare per park/wake.
     */
    void setTrace(TraceExporter* trace) { trace_ = trace; }

    /**
     * Enable contention attribution: LLC spin re-reads, parks, wakes,
     * wake-evictions and park durations are charged to the word's line
     * in this bank's shard. Null (default) costs one compare per site.
     */
    void setAttribution(AttributionTable* attr) { attr_ = attr; }

    /**
     * Enable causal sync-episode tracing: every park in and wake from
     * this bank's callback directory becomes a queue-residency record
     * for the causal stitcher, and (with trace export also on) each
     * wake emits a releaser→directory→waiter flow arrow. Null
     * (default) costs one compare per site.
     */
    void setCausal(CausalTracker* causal) { causal_ = causal; }

    void dumpDebug(JsonWriter& w) const override;

    /** LLC data accesses (Fig. 1/20 metric). */
    std::uint64_t accesses() const { return accesses_.value(); }
    /** Accesses on behalf of sync-marked instructions. */
    std::uint64_t syncAccesses() const { return syncAccesses_.value(); }
    std::uint64_t cbdirAccesses() const { return cbdirAccesses_.value(); }
    /** Waiters released from the callback directory. */
    std::uint64_t wakesSent() const { return wakesSent_.value(); }

  private:
    struct LineInfo
    {
    };
    using Line = CacheArray<LineInfo>::Line;

    void dispatch(const Message& msg);
    bool ensurePresent(const Message& msg);
    void fillLine(const Message& msg, Addr line_addr);

    void handleGetS(const Message& msg);
    void handleWtFlush(const Message& msg);
    void handleLdThrough(const Message& msg);
    void handleGetCB(const Message& msg);
    void handleStore(const Message& msg, WakePolicy policy);
    void handleAtomic(const Message& msg);

    /**
     * Park @p msg (a blocked GetCB or callback RMW) in waiters_ and
     * record the park for attribution, causal tracing and the trace.
     */
    void park(const Message& msg);

    /**
     * Satisfy parked waiters of @p word in FIFO list order. Woken plain
     * callbacks receive the current value; woken RMWs re-execute
     * atomically and may themselves wake further waiters (queued).
     * @param evicted true when waiters are satisfied by a directory
     *        replacement rather than a write (Fig. 3 step 5)
     * @param releaser the core whose write triggered the cascade
     *        (invalidCore for evictions); cascade wakes triggered by a
     *        woken RMW keep the original releaser, which is the core
     *        the trace flow arrows start from
     */
    void processWakes(Addr word, const std::vector<CoreId>& initial,
                      bool evicted, CoreId releaser);

    /** Execute the RMW of @p req against the current value; respond. */
    void executeRmw(const Message& req, std::vector<CoreId>& wake_queue);

    void handleEviction(const CbReadResult& res);

    /** Fault-injection gate run before each callback-directory op. */
    void maybeInjectEviction();

    void sendToCore(MsgType type, const Message& req, Word value,
                    Tick latency);
    void chargeAccess(const Message& msg);

    BankId bank_;
    EventQueue& eq_;
    Mesh& mesh_;
    DataStore& data_;
    MemoryModel& memory_;
    CacheArray<LineInfo> array_;
    LlcTiming timing_;
    Tick cbLatency_;
    PipelinedResource pipe_;
    PipelinedResource cbPipe_;
    LineLockTable locks_;
    CallbackDirectory cbdir_;
    FaultInjector* faults_ = nullptr;
    TraceExporter* trace_ = nullptr;
    AttributionTable* attr_ = nullptr;
    CausalTracker* causal_ = nullptr;

    /** One parked blocked callback request plus its park tick. */
    struct Waiter
    {
        Message req;
        Tick parkedAt = 0;
    };

    /** Parked blocked callback requests: word -> core -> waiter. */
    std::unordered_map<Addr, std::map<CoreId, Waiter>> waiters_;

    Counter accesses_;
    Counter syncAccesses_;
    Counter cbdirAccesses_;
    Counter wakesSent_;
};

} // namespace cbsim

#endif // CBSIM_COHERENCE_VIPS_VIPS_LLC_HH
