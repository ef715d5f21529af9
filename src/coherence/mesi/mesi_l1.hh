/**
 * @file
 * L1 side of the invalidation-based MESI directory protocol (the paper's
 * "Invalidation" baseline).
 *
 * Spin loops hit locally in the L1 (S state) and are broken by explicit
 * invalidations when the writer's GetX reaches the directory. Atomics
 * acquire M state and execute locally, so a contended Test&Set storm
 * invalidates all spinning readers on every attempt — the behaviour
 * behind Figure 20's "Invalidation is outpaced for naive sync" result.
 *
 * Racy VIPS-style operations (ld_through, ld_cb, st_cb*) degrade to
 * ordinary cached loads/stores under MESI, which lets the same programs
 * run on either protocol.
 */

#ifndef CBSIM_COHERENCE_MESI_MESI_L1_HH
#define CBSIM_COHERENCE_MESI_MESI_L1_HH

#include <optional>
#include <vector>

#include "coherence/controller.hh"
#include "mem/cache_array.hh"
#include "mem/data_store.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"

namespace cbsim {

class AttributionTable;
class CausalTracker;

/** Stable MESI states; I is represented by absence from the array. */
enum class MesiState : std::uint8_t
{
    S,
    E,
    M,
};

/** Per-core L1 controller for the MESI protocol. */
class MesiL1 : public L1Controller
{
  public:
    /**
     * @param node     mesh node hosting this core
     * @param l1_geom  L1 geometry (Table 2: 32 KB, 4-way)
     * @param num_banks LLC bank count for address interleaving
     */
    /**
     * @param pause_interval local spin-loop re-check period (cycles);
     *        used for the spin-watch fast path's timing quantization
     *        and L1-energy accounting
     */
    MesiL1(CoreId core, NodeId node, EventQueue& eq, Mesh& mesh,
           DataStore& data, const CacheGeometry& l1_geom, Tick l1_latency,
           unsigned num_banks, Tick pause_interval = 12);

    void access(MemRequest req) override;
    void selfInvalidate(FenceCompletion done) override;
    void selfDowngrade(FenceCompletion done) override;
    void handleMessage(const Message& msg) override;

    /** Current state of @p addr's line (for tests); nullopt if I. */
    std::optional<MesiState> lineState(Addr addr) const;

    /**
     * Snapshot of all valid lines (for the SWMR protocol checker in
     * tests): pairs of (line address, stable state).
     */
    std::vector<std::pair<Addr, MesiState>> cachedLines() const;

    /**
     * Line address of the outstanding miss, if any. The invariant
     * checker skips lines with a pending transaction at either end.
     */
    std::optional<Addr> pendingLine() const;

    void dumpDebug(JsonWriter& w) const override;

    /** L1 data-array accesses (energy model input). */
    std::uint64_t accesses() const { return accesses_.value(); }
    /** Dirty lines written back (PutM) on eviction. */
    std::uint64_t writebacks() const { return writebacks_.value(); }
    /** Spin watches released by the liveness timeout. */
    std::uint64_t spinWatchTimeouts() const
    {
        return spinWatchTimeouts_.value();
    }

    /**
     * Enable contention attribution: spin re-acquires after an
     * invalidation are charged to the watched line in this L1's shard.
     */
    void setAttribution(AttributionTable* attr) { attr_ = attr; }

    /**
     * Enable causal sync-episode tracing: spin-watch park/unpark pairs
     * become directory-queue-residency analogues in the causal
     * stitcher (docs/OBSERVABILITY.md §Causal tracing); a timeout
     * unpark is recorded as a spurious wake.
     */
    void setCausal(CausalTracker* causal) { causal_ = causal; }

  private:
    struct LineInfo
    {
        MesiState state = MesiState::S;
    };

    /** Collapse Table 1 ops onto plain cached accesses (see file doc). */
    static MemOp canonicalOp(MemOp op);

    void finishLocal(const MemRequest& req, MesiState state);
    void sendToHome(MsgType type, Addr addr, bool sync);
    void installAndComplete(const Message& msg);
    void evictFor(Addr addr);

    CoreId core_;
    NodeId node_;
    EventQueue& eq_;
    Mesh& mesh_;
    DataStore& data_;
    CacheArray<LineInfo> array_;
    Tick l1Latency_;
    unsigned numBanks_;
    Tick pauseInterval_;

    /** The single outstanding miss (cores block on memory ops). */
    struct Pending
    {
        MemRequest req;
        Addr lineAddr = 0;
        bool wantExclusive = false;
        /**
         * IS_D race: an invalidation for an earlier transaction arrived
         * while our shared-data response was in flight. The directory
         * no longer tracks us, so the arriving data may only satisfy
         * this one load; the line is dropped right after install.
         */
        bool invalidateOnInstall = false;
    };
    std::optional<Pending> pending_;
    std::uint64_t nextTxn_ = 1;

    /**
     * Forward requests that raced ahead of our in-flight exclusive
     * miss's Data response (the IM_D transient): deferred until the
     * line installs and the pending store/atomic commits, then replayed.
     */
    std::vector<Message> stashedFwds_;

    /**
     * Spin-watch fast path: a spin-marked load that re-reads the same
     * cached, unchanged value is parked here instead of re-executing
     * every pause interval. It resumes (re-issuing the load) when the
     * line is invalidated — the only event that can change the value
     * under MESI — or at a coarse liveness timeout. Waiting is
     * event-free; on wake the elapsed re-checks are charged to the L1
     * access counter so the energy model sees the spinning.
     */
    struct SpinWatch
    {
        MemRequest req;
        Addr lineAddr = 0;
        Tick parkedAt = 0;
        std::uint64_t generation = 0;
    };
    std::optional<SpinWatch> watch_;
    std::uint64_t watchGeneration_ = 0;
    Addr lastSpinAddr_ = ~Addr(0);
    Word lastSpinValue_ = 0;
    bool lastSpinValid_ = false;

    void parkSpin(MemRequest req);
    void unparkSpin(bool spurious);

    Counter accesses_;
    Counter writebacks_;
    Counter spinWatchTimeouts_;

    AttributionTable* attr_ = nullptr;
    CausalTracker* causal_ = nullptr;
};

} // namespace cbsim

#endif // CBSIM_COHERENCE_MESI_MESI_L1_HH
