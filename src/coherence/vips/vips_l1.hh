/**
 * @file
 * L1 side of the VIPS-M-style self-invalidation / self-downgrade
 * protocol (paper §3.1).
 *
 * DRF data is cached normally; stores mark per-word dirty bits that are
 * written through at self-downgrade fences (and evictions). self-invl
 * fences discard all Shared-page lines (Private pages are exempt via the
 * first-touch classifier). Racy accesses (*_through, *_cb, atomics)
 * bypass the L1 entirely and are serialized at the home LLC bank, which
 * also hosts the callback directory.
 */

#ifndef CBSIM_COHERENCE_VIPS_VIPS_L1_HH
#define CBSIM_COHERENCE_VIPS_VIPS_L1_HH

#include <optional>
#include <unordered_map>

#include "coherence/controller.hh"
#include "coherence/vips/page_classifier.hh"
#include "mem/cache_array.hh"
#include "mem/data_store.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"

namespace cbsim {

class FaultInjector;

/** Per-core L1 controller for the VIPS-M protocol. */
class VipsL1 : public L1Controller
{
  public:
    VipsL1(CoreId core, NodeId node, EventQueue& eq, Mesh& mesh,
           DataStore& data, PageClassifier& classifier,
           const CacheGeometry& l1_geom, Tick l1_latency,
           unsigned num_banks);

    void access(MemRequest req) override;
    void selfInvalidate(FenceCompletion done) override;
    void selfDowngrade(FenceCompletion done) override;
    void handleMessage(const Message& msg) override;

    /**
     * Private->Shared transition: flush dirty words and invalidate all
     * cached lines of @p page_base (invoked via the classifier hook).
     */
    void reclassifyPage(Addr page_base);

    /** For tests: is @p addr's line valid in this L1? */
    bool cached(Addr addr) const;
    /** For tests: dirty-word mask of @p addr's line (0 if absent). */
    std::uint32_t dirtyMask(Addr addr) const;

    /**
     * Visit every cached line: fn(lineAddr, privatePage, dirtyMask).
     * The invariant checker cross-checks privatePage against the page
     * classifier with this.
     */
    template <typename Fn>
    void
    forEachCachedLine(Fn&& fn) const
    {
        array_.forEachValid([&fn](const Line& line) {
            fn(line.tag, line.state.privatePage, line.state.dirty);
        });
    }

    /**
     * Enable self-invalidation timing perturbation: fences may start
     * after a bounded injected delay (FaultPlan::selfInvl*). Null
     * (default) costs one compare per fence.
     */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    void dumpDebug(JsonWriter& w) const override;

    /** L1 data-array accesses (energy model input). */
    std::uint64_t accesses() const { return accesses_.value(); }
    /** Dirty lines written through to the LLC (WtFlush). */
    std::uint64_t wtFlushes() const { return wtFlushes_.value(); }

  private:
    struct VipsLine
    {
        std::uint32_t dirty = 0; ///< per-word dirty bits
        bool privatePage = false;
    };

    using Line = CacheArray<VipsLine>::Line;

    void missFill(MemRequest req);
    void issueThrough(MemRequest req);
    void flushLine(Line& line);
    void maybeFinishFence();
    void selfInvalidateNow(FenceCompletion done);

    CoreId core_;
    NodeId node_;
    EventQueue& eq_;
    Mesh& mesh_;
    DataStore& data_;
    PageClassifier& classifier_;
    CacheArray<VipsLine> array_;
    Tick l1Latency_;
    unsigned numBanks_;

    /** The single outstanding DRF miss. */
    struct PendingFill
    {
        MemRequest req;
        Addr lineAddr;
    };
    std::optional<PendingFill> pendingFill_;

    /** The single outstanding racy (through/callback/atomic) request. */
    struct PendingThrough
    {
        MemRequest req;
        std::uint64_t txn;
    };
    std::optional<PendingThrough> pendingThrough_;

    std::uint64_t nextTxn_ = 1;
    unsigned outstandingFlushAcks_ = 0;
    FenceCompletion fenceDone_;
    FaultInjector* faults_ = nullptr;

    Counter accesses_;
    Counter wtFlushes_;
};

} // namespace cbsim

#endif // CBSIM_COHERENCE_VIPS_VIPS_L1_HH
