#include "coherence/mesi/mesi_l1.hh"

#include "harness/json.hh"
#include "mem/addr.hh"
#include "obs/attribution.hh"
#include "obs/causal.hh"
#include "sim/log.hh"

namespace cbsim {

MesiL1::MesiL1(CoreId core, NodeId node, EventQueue& eq, Mesh& mesh,
               DataStore& data, const CacheGeometry& l1_geom,
               Tick l1_latency, unsigned num_banks, Tick pause_interval)
    : core_(core), node_(node), eq_(eq), mesh_(mesh), data_(data),
      array_(l1_geom), l1Latency_(l1_latency), numBanks_(num_banks),
      pauseInterval_(pause_interval > 0 ? pause_interval : 12)
{
}

void
MesiL1::parkSpin(MemRequest req)
{
    const Addr line_addr = AddrLayout::lineAlign(req.addr);
    watch_.emplace(SpinWatch{std::move(req), line_addr, eq_.now(),
                             ++watchGeneration_});
    // Liveness net: spin loops in this suite only exit when the watched
    // value changes (which requires an invalidation), but a coarse
    // timeout keeps even pathological programs live at negligible cost.
    if (causal_ != nullptr)
        causal_->recordPark(line_addr, core_, eq_.now());
    eq_.schedule(100'000, [this, gen = watchGeneration_] {
        if (watch_ && watch_->generation == gen) {
            spinWatchTimeouts_.inc();
            unparkSpin(/*spurious=*/true);
        }
    });
}

void
MesiL1::unparkSpin(bool spurious)
{
    CBSIM_ASSERT(watch_, "unpark without watch");
    SpinWatch w = std::move(*watch_);
    watch_.reset();
    // Charge the re-checks that local spinning would have performed.
    const Tick waited = eq_.now() - w.parkedAt;
    accesses_.inc(waited / pauseInterval_);
    if (attr_ != nullptr)
        attr_->row(w.lineAddr).reacquires++;
    if (causal_ != nullptr)
        causal_->recordWake(w.lineAddr, core_, eq_.now(), spurious);
    lastSpinValid_ = false;
    // Re-execute the load through the normal path (the line was just
    // invalidated, so this becomes the GetS refetch of the 5-message
    // invalidation hand-off; on the timeout path it is a plain hit).
    access(std::move(w.req));
}

MemOp
MesiL1::canonicalOp(MemOp op)
{
    switch (op) {
      case MemOp::LdThrough:
      case MemOp::LdCb:
        return MemOp::Load;
      case MemOp::StThrough:
      case MemOp::StCb1:
      case MemOp::StCb0:
        return MemOp::Store;
      default:
        return op;
    }
}

void
MesiL1::sendToHome(MsgType type, Addr addr, bool sync)
{
    Message msg;
    msg.type = type;
    msg.src = node_;
    msg.dst = AddrLayout::bankOf(addr, numBanks_);
    msg.dstPort = Port::Bank;
    msg.requester = core_;
    msg.addr = AddrLayout::lineAlign(addr);
    msg.sync = sync;
    msg.txn = nextTxn_++;
    mesh_.send(msg);
}

void
MesiL1::finishLocal(const MemRequest& req, MesiState state)
{
    // The line is present with sufficient permission: perform the access
    // functionally and complete after the L1 latency.
    Word result = 0;
    switch (canonicalOp(req.op)) {
      case MemOp::Load:
        result = data_.read(req.addr);
        break;
      case MemOp::Store:
        CBSIM_ASSERT(state == MesiState::M, "store without M");
        data_.write(req.addr, req.storeValue);
        break;
      case MemOp::Atomic: {
        CBSIM_ASSERT(state == MesiState::M, "atomic without M");
        const Word old = data_.read(req.addr);
        const auto out =
            evalAtomic(req.func, old, req.operand, req.compare);
        if (out.doWrite)
            data_.write(req.addr, out.newValue);
        result = old;
        break;
      }
      default:
        panic("finishLocal: unexpected op");
    }
    eq_.schedule(l1Latency_, [cb = req.onComplete, result] { cb(result); });
}

void
MesiL1::access(MemRequest req)
{
    CBSIM_ASSERT(!pending_, "core issued a second outstanding request");
    accesses_.inc();
    const MemOp op = canonicalOp(req.op);
    auto* line = array_.find(req.addr);

    if (line) {
        auto& st = line->state.state;
        const bool needs_m = op != MemOp::Load;
        if (!needs_m) {
            if (req.spinHint) {
                // Spin-watch fast path: a repeated read of the same,
                // unchanged cached value parks until an invalidation.
                const Addr word = AddrLayout::wordAlign(req.addr);
                const Word value = data_.read(req.addr);
                if (lastSpinValid_ && lastSpinAddr_ == word &&
                    lastSpinValue_ == value) {
                    parkSpin(std::move(req));
                    return;
                }
                lastSpinValid_ = true;
                lastSpinAddr_ = word;
                lastSpinValue_ = value;
            } else {
                lastSpinValid_ = false;
            }
            array_.touch(*line);
            finishLocal(req, st);
            return;
        }
        lastSpinValid_ = false;
        if (st == MesiState::M || st == MesiState::E) {
            st = MesiState::M; // silent E->M upgrade
            array_.touch(*line);
            finishLocal(req, MesiState::M);
            return;
        }
        // S -> M upgrade: GetX; keep the line until the response.
    }

    lastSpinValid_ = false;
    Pending p;
    p.lineAddr = AddrLayout::lineAlign(req.addr);
    p.wantExclusive = op != MemOp::Load;
    p.req = std::move(req);
    const bool sync = p.req.sync;
    const Addr addr = p.lineAddr;
    const bool want_x = p.wantExclusive;
    pending_.emplace(std::move(p));
    // The request leaves after the L1 lookup determined the miss.
    eq_.schedule(l1Latency_, [this, addr, want_x, sync] {
        sendToHome(want_x ? MsgType::GetX : MsgType::GetS, addr, sync);
    });
}

void
MesiL1::evictFor(Addr addr)
{
    auto* victim = array_.victim(addr);
    if (victim->valid) {
        if (victim->state.state == MesiState::M) {
            writebacks_.inc();
            Message wb;
            wb.type = MsgType::PutM;
            wb.src = node_;
            wb.dst = AddrLayout::bankOf(victim->tag, numBanks_);
            wb.dstPort = Port::Bank;
            wb.requester = core_;
            wb.addr = victim->tag;
            mesh_.send(wb);
        }
        array_.invalidate(*victim);
    }
}

void
MesiL1::installAndComplete(const Message& msg)
{
    CBSIM_ASSERT(pending_ && pending_->lineAddr == msg.addr,
                 "unexpected data response");
    Pending p = std::move(*pending_);
    pending_.reset();

    auto* line = array_.find(msg.addr);
    if (!line) {
        evictFor(msg.addr);
        line = array_.victim(msg.addr);
        array_.install(*line, msg.addr);
        accesses_.inc(); // fill writes the data array
    } else {
        array_.touch(*line);
    }
    MesiState st;
    if (p.wantExclusive)
        st = MesiState::M;
    else
        st = msg.exclusive ? MesiState::E : MesiState::S;
    line->state.state = st;
    finishLocal(p.req, st);
    if (p.invalidateOnInstall) {
        array_.invalidate(*line);
        lastSpinValid_ = false; // the next spin read must refetch
    }

    // Replay forwards that raced ahead of this Data response; the
    // store/atomic above has committed, so the forwarded line carries
    // the new value.
    if (!stashedFwds_.empty()) {
        auto fwds = std::move(stashedFwds_);
        stashedFwds_.clear();
        for (const auto& fwd : fwds)
            handleMessage(fwd);
    }
}

void
MesiL1::handleMessage(const Message& msg)
{
    switch (msg.type) {
      case MsgType::Data:
        installAndComplete(msg);
        break;

      case MsgType::Inv: {
        if (auto* line = array_.find(msg.addr))
            array_.invalidate(*line);
        if (watch_ && watch_->lineAddr == msg.addr)
            unparkSpin(/*spurious=*/false);
        if (pending_ && !pending_->wantExclusive &&
            pending_->lineAddr == msg.addr) {
            // IS_D race: the in-flight fill is already stale w.r.t. the
            // directory; consume it once, then drop the line.
            pending_->invalidateOnInstall = true;
        }
        Message ack;
        ack.type = MsgType::InvAck;
        ack.src = node_;
        ack.dst = msg.src;
        ack.dstPort = Port::Bank;
        ack.requester = core_;
        ack.addr = msg.addr;
        ack.txn = msg.txn;
        mesh_.send(ack);
        break;
      }

      case MsgType::FwdGetS: {
        if (pending_ && pending_->lineAddr == msg.addr) {
            // IS_D/IM_D transient: the directory made us owner but our
            // Data response is still in flight; defer until install.
            stashedFwds_.push_back(msg);
            break;
        }
        // Downgrade M->S and return the line to the home bank.
        if (auto* line = array_.find(msg.addr))
            line->state.state = MesiState::S;
        Message rsp;
        rsp.type = MsgType::Data;
        rsp.src = node_;
        rsp.dst = msg.src;
        rsp.dstPort = Port::Bank;
        rsp.requester = core_;
        rsp.addr = msg.addr;
        rsp.txn = msg.txn;
        mesh_.send(rsp);
        break;
      }

      case MsgType::FwdGetX: {
        if (pending_ && pending_->lineAddr == msg.addr) {
            stashedFwds_.push_back(msg); // IS_D/IM_D transient: defer
            break;
        }
        if (auto* line = array_.find(msg.addr))
            array_.invalidate(*line);
        if (watch_ && watch_->lineAddr == msg.addr)
            unparkSpin(/*spurious=*/false);
        Message rsp;
        rsp.type = MsgType::Data;
        rsp.src = node_;
        rsp.dst = msg.src;
        rsp.dstPort = Port::Bank;
        rsp.requester = core_;
        rsp.addr = msg.addr;
        rsp.txn = msg.txn;
        mesh_.send(rsp);
        break;
      }

      default:
        panic("MesiL1: unexpected message ", msg.toString());
    }
}

void
MesiL1::selfInvalidate(FenceCompletion done)
{
    // MESI maintains coherence with explicit invalidations; the fence is
    // a no-op (still one cycle so fenced code keeps its shape).
    eq_.schedule(1, std::move(done));
}

void
MesiL1::selfDowngrade(FenceCompletion done)
{
    eq_.schedule(1, std::move(done));
}

std::vector<std::pair<Addr, MesiState>>
MesiL1::cachedLines() const
{
    std::vector<std::pair<Addr, MesiState>> lines;
    const_cast<CacheArray<LineInfo>&>(array_).forEachValid(
        [&lines](const auto& line) {
            lines.emplace_back(line.tag, line.state.state);
        });
    return lines;
}

std::optional<Addr>
MesiL1::pendingLine() const
{
    if (!pending_)
        return std::nullopt;
    return pending_->lineAddr;
}

void
MesiL1::dumpDebug(JsonWriter& w) const
{
    w.beginObject();
    w.field("protocol", "mesi");
    w.field("core", static_cast<std::uint64_t>(core_));
    w.field("cached_lines",
            static_cast<std::uint64_t>(array_.validCount()));
    w.key("pending_miss");
    if (pending_) {
        w.beginObject();
        w.field("line", static_cast<std::uint64_t>(pending_->lineAddr));
        w.field("want_exclusive", pending_->wantExclusive);
        w.field("stashed_fwds",
                static_cast<std::uint64_t>(stashedFwds_.size()));
        w.endObject();
    } else {
        w.null();
    }
    w.key("spin_watch");
    if (watch_) {
        w.beginObject();
        w.field("line", static_cast<std::uint64_t>(watch_->lineAddr));
        w.field("parked_at", watch_->parkedAt);
        w.endObject();
    } else {
        w.null();
    }
    w.endObject();
}

std::optional<MesiState>
MesiL1::lineState(Addr addr) const
{
    const auto* line = array_.find(addr);
    if (!line)
        return std::nullopt;
    return line->state.state;
}

} // namespace cbsim
