/**
 * @file
 * LLC bank + full-map directory for the MESI protocol.
 *
 * A blocking directory: at most one transaction is in flight per line;
 * requests arriving for a busy line are queued and replayed in FIFO order
 * when the transaction completes. The directory tracks a full sharer bit
 * vector and an owner (E/M holder). Invalidation acknowledgments are
 * collected here before the exclusive requester is answered — this is the
 * protocol whose {write, inv, ack, load, data} = 5-message value hand-off
 * the paper's callback replaces with 3 messages.
 */

#ifndef CBSIM_COHERENCE_MESI_MESI_LLC_HH
#define CBSIM_COHERENCE_MESI_MESI_LLC_HH

#include <unordered_map>

#include "coherence/controller.hh"
#include "mem/cache_array.hh"
#include "mem/data_store.hh"
#include "mem/memory_model.hh"
#include "mem/mshr.hh"
#include "noc/mesh.hh"

namespace cbsim {

class AttributionTable;

/** Timing parameters of an LLC bank (Table 2). */
struct LlcTiming
{
    Tick tagLatency = 6;
    Tick dataLatency = 12;
};

/** One MESI LLC bank with its directory slice. */
class MesiLlcBank : public LlcBank
{
  public:
    MesiLlcBank(BankId bank, EventQueue& eq, Mesh& mesh, DataStore& data,
                MemoryModel& memory, const CacheGeometry& geom,
                const LlcTiming& timing);

    void handleMessage(const Message& msg) override;

    /** Directory introspection for tests. */
    std::uint64_t sharersOf(Addr addr) const;
    CoreId ownerOf(Addr addr) const;

    /**
     * Line addresses with an open (in-flight) directory transaction.
     * The invariant checker skips these: mid-transaction sharer/owner
     * state is legitimately transient (invalidations or owner data
     * still on the wire).
     */
    std::vector<Addr> openTxnAddrs() const;

    /** Walk every resident directory line: fn(line, sharers, owner). */
    template <typename Fn>
    void
    forEachDirLine(Fn&& fn) const
    {
        array_.forEachValid([&fn](const Line& line) {
            fn(line.tag, line.state.sharers, line.state.owner);
        });
    }

    /** MSHR introspection for the leak invariant. */
    const LineLockTable& lockTable() const { return locks_; }

    void dumpDebug(JsonWriter& w) const override;

    /** Data-array accesses (energy and Fig. 1 metric). */
    std::uint64_t accesses() const { return accesses_.value(); }
    /** Accesses on behalf of sync-marked instructions. */
    std::uint64_t syncAccesses() const { return syncAccesses_.value(); }
    std::uint64_t invsSent() const { return invsSent_.value(); }
    /** Inclusive evictions that invalidated L1 copies. */
    std::uint64_t recalls() const { return recalls_.value(); }

    /**
     * Enable contention attribution: invalidation fan-out of
     * sync-marked writes is charged to the written line in this
     * bank's shard.
     */
    void setAttribution(AttributionTable* attr) { attr_ = attr; }

  private:
    struct DirInfo
    {
        std::uint64_t sharers = 0;
        CoreId owner = invalidCore;
    };

    struct Txn
    {
        Message request;
        unsigned acksLeft = 0;
        bool waitingOwner = false;
    };

    using Line = CacheArray<DirInfo>::Line;

    void dispatch(const Message& msg);
    void handleGetS(const Message& msg, Line& line);
    void handleGetX(const Message& msg, Line& line);
    void handlePutM(const Message& msg, Line& line);
    void handleInvAck(const Message& msg);
    void handleOwnerData(const Message& msg);

    /** Ensure the line is resident; may lock + fetch. True if ready. */
    Line* ensurePresent(const Message& msg);

    /** Memory fill completion: pick a victim, install, replay. */
    void fillLine(const Message& msg, Addr line_addr);

    void sendData(const Message& req, bool exclusive, Tick extra = 0);
    void sendInv(CoreId target, Addr addr, std::uint64_t txn, bool sync);
    void finishTxn(Addr addr);
    void unlockAndReplay(Addr addr);

    NodeId nodeOfCore(CoreId c) const { return static_cast<NodeId>(c); }

    BankId bank_;
    EventQueue& eq_;
    Mesh& mesh_;
    DataStore& data_;
    MemoryModel& memory_;
    CacheArray<DirInfo> array_;
    LlcTiming timing_;
    PipelinedResource pipe_;
    LineLockTable locks_;
    std::unordered_map<Addr, Txn> txns_;

    Counter accesses_;
    Counter syncAccesses_;
    Counter invsSent_;
    Counter recalls_;

    AttributionTable* attr_ = nullptr;
};

} // namespace cbsim

#endif // CBSIM_COHERENCE_MESI_MESI_LLC_HH
