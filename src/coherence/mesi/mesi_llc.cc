#include "coherence/mesi/mesi_llc.hh"

#include "harness/json.hh"

#include <bit>

#include "mem/addr.hh"
#include "obs/attribution.hh"
#include "sim/log.hh"

namespace cbsim {

MesiLlcBank::MesiLlcBank(BankId bank, EventQueue& eq, Mesh& mesh,
                         DataStore& data, MemoryModel& memory,
                         const CacheGeometry& geom, const LlcTiming& timing)
    : bank_(bank), eq_(eq), mesh_(mesh), data_(data), memory_(memory),
      array_(geom), timing_(timing), pipe_(eq)
{
}

void
MesiLlcBank::handleMessage(const Message& msg)
{
    switch (msg.type) {
      case MsgType::InvAck:
        handleInvAck(msg);
        return;
      case MsgType::Data:
        handleOwnerData(msg);
        return;
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
        dispatch(msg);
        return;
      default:
        panic("MesiLlcBank: unexpected message ", msg.toString());
    }
}

void
MesiLlcBank::dispatch(const Message& msg)
{
    const Addr line_addr = AddrLayout::lineAlign(msg.addr);
    if (locks_.isLocked(line_addr)) {
        locks_.defer(line_addr, [this, msg] { dispatch(msg); });
        return;
    }
    Line* line = ensurePresent(msg);
    if (!line)
        return; // fetching; dispatch re-runs when the fill completes

    switch (msg.type) {
      case MsgType::GetS:
        handleGetS(msg, *line);
        break;
      case MsgType::GetX:
        handleGetX(msg, *line);
        break;
      case MsgType::PutM:
        handlePutM(msg, *line);
        break;
      default:
        panic("dispatch: bad type");
    }
}

MesiLlcBank::Line*
MesiLlcBank::ensurePresent(const Message& msg)
{
    const Addr line_addr = AddrLayout::lineAlign(msg.addr);
    if (auto* line = array_.find(line_addr)) {
        array_.touch(*line);
        return line;
    }
    // Miss: lock the line, fetch from memory, then replay.
    locks_.lock(line_addr);
    memory_.read(line_addr,
                 [this, msg, line_addr] { fillLine(msg, line_addr); });
    return nullptr;
}

void
MesiLlcBank::fillLine(const Message& msg, Addr line_addr)
{
    auto* victim = array_.victimIf(
        line_addr, [this](const Line& l) { return !locks_.isLocked(l.tag); });
    if (!victim) {
        // Every way in the set is pinned by an in-flight transaction;
        // retry shortly.
        eq_.schedule(4, [this, msg, line_addr] { fillLine(msg, line_addr); });
        return;
    }
    {
        if (array_.isValid(*victim)) {
            // Inclusive eviction: recall L1 copies. Acks are not awaited;
            // stale InvAcks are ignored by handleInvAck.
            auto& dir = victim->state;
            if (dir.sharers != 0 || dir.owner != invalidCore) {
                recalls_.inc();
                for (CoreId c = 0; c < 64; ++c) {
                    const bool sharer = dir.sharers & (1ULL << c);
                    if (sharer || dir.owner == c)
                        sendInv(c, victim->tag, 0, /*sync=*/false);
                }
            }
            memory_.write(victim->tag);
        }
        array_.install(*victim, line_addr);
        accesses_.inc(); // fill writes the data array
        unlockAndReplay(line_addr);
        dispatch(msg);
    }
}

void
MesiLlcBank::sendData(const Message& req, bool exclusive, Tick extra)
{
    accesses_.inc();
    if (req.sync)
        syncAccesses_.inc();
    Message rsp;
    rsp.type = MsgType::Data;
    rsp.src = bank_;
    rsp.dst = req.src;
    rsp.dstPort = Port::Core;
    rsp.requester = req.requester;
    rsp.addr = req.addr;
    rsp.exclusive = exclusive;
    rsp.txn = req.txn;
    pipe_.access(timing_.dataLatency + extra,
                 [this, rsp] { mesh_.send(rsp); });
}

void
MesiLlcBank::sendInv(CoreId target, Addr addr, std::uint64_t txn,
                     bool sync)
{
    invsSent_.inc();
    Message inv;
    inv.type = MsgType::Inv;
    inv.src = bank_;
    inv.dst = nodeOfCore(target);
    inv.dstPort = Port::Core;
    inv.addr = addr;
    inv.txn = txn;
    // Carrying the triggering request's sync mark lets the NoC
    // attribute the invalidation traffic of sync stores to the causal
    // wake path (MESI's analogue of a callback wake-up).
    inv.sync = sync;
    mesh_.send(inv);
}

void
MesiLlcBank::handleGetS(const Message& msg, Line& line)
{
    auto& dir = line.state;
    const std::uint64_t bit = 1ULL << msg.requester;

    if (dir.owner != invalidCore && dir.owner != msg.requester) {
        // Owner holds E/M: fetch the line back, then answer shared.
        const Addr line_addr = line.tag;
        locks_.lock(line_addr);
        Txn txn;
        txn.request = msg;
        txn.waitingOwner = true;
        txns_.emplace(line_addr, txn);
        Message fwd;
        fwd.type = MsgType::FwdGetS;
        fwd.src = bank_;
        fwd.dst = nodeOfCore(dir.owner);
        fwd.dstPort = Port::Core;
        fwd.addr = line_addr;
        fwd.txn = msg.txn;
        pipe_.access(timing_.tagLatency, [this, fwd] { mesh_.send(fwd); });
        return;
    }

    if (dir.owner == invalidCore && dir.sharers == 0) {
        // First reader: grant E; track the E-holder as owner.
        dir.owner = msg.requester;
        sendData(msg, /*exclusive=*/true);
    } else {
        if (dir.owner == msg.requester)
            dir.owner = invalidCore; // stale E-owner re-requesting
        dir.sharers |= bit;
        sendData(msg, /*exclusive=*/false);
    }
}

void
MesiLlcBank::handleGetX(const Message& msg, Line& line)
{
    auto& dir = line.state;
    const std::uint64_t bit = 1ULL << msg.requester;
    const Addr line_addr = line.tag;

    if (dir.owner != invalidCore && dir.owner != msg.requester) {
        locks_.lock(line_addr);
        Txn txn;
        txn.request = msg;
        txn.waitingOwner = true;
        txns_.emplace(line_addr, txn);
        Message fwd;
        fwd.type = MsgType::FwdGetX;
        fwd.src = bank_;
        fwd.dst = nodeOfCore(dir.owner);
        fwd.dstPort = Port::Core;
        fwd.addr = line_addr;
        fwd.txn = msg.txn;
        pipe_.access(timing_.tagLatency, [this, fwd] { mesh_.send(fwd); });
        return;
    }

    const std::uint64_t to_inv = dir.sharers & ~bit;
    if (to_inv != 0) {
        locks_.lock(line_addr);
        Txn txn;
        txn.request = msg;
        txn.acksLeft = static_cast<unsigned>(std::popcount(to_inv));
        if (attr_ != nullptr && msg.sync)
            attr_->row(line_addr).invalidations += txn.acksLeft;
        txns_.emplace(line_addr, txn);
        pipe_.access(timing_.tagLatency, [this, to_inv, line_addr, msg] {
            for (CoreId c = 0; c < 64; ++c) {
                if (to_inv & (1ULL << c))
                    sendInv(c, line_addr, msg.txn, msg.sync);
            }
        });
        return;
    }

    dir.sharers = 0;
    dir.owner = msg.requester;
    sendData(msg, /*exclusive=*/true);
}

void
MesiLlcBank::handlePutM(const Message& msg, Line& line)
{
    auto& dir = line.state;
    if (dir.owner == msg.requester) {
        dir.owner = invalidCore;
        accesses_.inc(); // write the returned dirty line
    }
    // Stale PutM (crossed a FwdGetX): silently dropped.
}

void
MesiLlcBank::handleInvAck(const Message& msg)
{
    const Addr line_addr = AddrLayout::lineAlign(msg.addr);
    auto it = txns_.find(line_addr);
    if (it == txns_.end())
        return; // recall ack: nothing to do
    Txn& txn = it->second;
    if (txn.acksLeft == 0)
        return; // stray ack for an owner-data transaction
    if (msg.txn != txn.request.txn)
        return; // stale ack (e.g., from an untracked recall)
    if (--txn.acksLeft == 0)
        finishTxn(line_addr);
}

void
MesiLlcBank::handleOwnerData(const Message& msg)
{
    const Addr line_addr = AddrLayout::lineAlign(msg.addr);
    auto it = txns_.find(line_addr);
    if (it == txns_.end())
        return; // stale writeback data
    if (!it->second.waitingOwner)
        return;
    accesses_.inc(); // the owner's line is written into the LLC
    finishTxn(line_addr);
}

void
MesiLlcBank::finishTxn(Addr line_addr)
{
    auto it = txns_.find(line_addr);
    CBSIM_ASSERT(it != txns_.end(), "finishTxn without txn");
    const Message req = it->second.request;
    const bool was_fwd = it->second.waitingOwner;
    txns_.erase(it);

    auto* line = array_.find(line_addr);
    CBSIM_ASSERT(line, "txn on non-resident line");
    auto& dir = line->state;

    if (req.type == MsgType::GetS) {
        CBSIM_ASSERT(was_fwd, "GetS txn must wait for the owner");
        dir.sharers |= (1ULL << dir.owner) | (1ULL << req.requester);
        dir.owner = invalidCore;
        sendData(req, /*exclusive=*/false);
    } else {
        CBSIM_ASSERT(req.type == MsgType::GetX, "bad txn request");
        dir.sharers = 0;
        dir.owner = req.requester;
        sendData(req, /*exclusive=*/true);
    }
    unlockAndReplay(line_addr);
}

void
MesiLlcBank::unlockAndReplay(Addr line_addr)
{
    auto deferred = locks_.unlock(line_addr);
    for (auto& op : deferred)
        eq_.schedule(0, std::move(op));
}

std::uint64_t
MesiLlcBank::sharersOf(Addr addr) const
{
    const auto* line = array_.find(addr);
    return line ? line->state.sharers : 0;
}

CoreId
MesiLlcBank::ownerOf(Addr addr) const
{
    const auto* line = array_.find(addr);
    return line ? line->state.owner : invalidCore;
}

std::vector<Addr>
MesiLlcBank::openTxnAddrs() const
{
    std::vector<Addr> out;
    out.reserve(txns_.size());
    for (const auto& [addr, txn] : txns_)
        out.push_back(addr);
    return out;
}

void
MesiLlcBank::dumpDebug(JsonWriter& w) const
{
    w.beginObject();
    w.field("protocol", "mesi");
    w.field("bank", static_cast<std::uint64_t>(bank_));
    w.field("resident_lines",
            static_cast<std::uint64_t>(array_.validCount()));
    w.key("open_txns");
    w.beginArray();
    for (const auto& [addr, txn] : txns_) {
        w.beginObject();
        w.field("line", static_cast<std::uint64_t>(addr));
        w.field("request", msgTypeName(txn.request.type));
        w.field("requester",
                static_cast<std::uint64_t>(txn.request.requester));
        w.field("acks_left", static_cast<std::uint64_t>(txn.acksLeft));
        w.field("waiting_owner", txn.waitingOwner);
        w.endObject();
    }
    w.endArray();
    w.key("locked_lines");
    w.beginArray();
    locks_.forEachLocked([&w](Addr line, std::size_t deferred) {
        w.beginObject();
        w.field("line", static_cast<std::uint64_t>(line));
        w.field("deferred_ops", static_cast<std::uint64_t>(deferred));
        w.endObject();
    });
    w.endArray();
    w.endObject();
}

} // namespace cbsim
