#include "coherence/vips/vips_l1.hh"

#include "debug/fault_injection.hh"
#include "harness/json.hh"
#include "mem/addr.hh"
#include "sim/log.hh"

namespace cbsim {

VipsL1::VipsL1(CoreId core, NodeId node, EventQueue& eq, Mesh& mesh,
               DataStore& data, PageClassifier& classifier,
               const CacheGeometry& l1_geom, Tick l1_latency,
               unsigned num_banks)
    : core_(core), node_(node), eq_(eq), mesh_(mesh), data_(data),
      classifier_(classifier), array_(l1_geom), l1Latency_(l1_latency),
      numBanks_(num_banks)
{
}

void
VipsL1::access(MemRequest req)
{
    if (bypassesL1(req.op)) {
        issueThrough(std::move(req));
        return;
    }

    CBSIM_ASSERT(!pendingFill_, "second outstanding DRF request");
    accesses_.inc();
    auto* line = array_.find(req.addr);
    if (line) {
        array_.touch(*line);
        Word result = 0;
        if (req.op == MemOp::Load) {
            result = data_.read(req.addr);
        } else {
            data_.write(req.addr, req.storeValue);
            line->state.dirty |= 1u << AddrLayout::wordInLine(req.addr);
        }
        eq_.schedule(l1Latency_,
                     [cb = req.onComplete, result] { cb(result); });
        return;
    }

    missFill(std::move(req));
}

void
VipsL1::missFill(MemRequest req)
{
    const Addr line_addr = AddrLayout::lineAlign(req.addr);
    const bool sync = req.sync;
    pendingFill_.emplace(PendingFill{std::move(req), line_addr});

    Message msg;
    msg.type = MsgType::GetS;
    msg.src = node_;
    msg.dst = AddrLayout::bankOf(line_addr, numBanks_);
    msg.dstPort = Port::Bank;
    msg.requester = core_;
    msg.addr = line_addr;
    msg.sync = sync;
    msg.txn = nextTxn_++;
    eq_.schedule(l1Latency_, [this, msg] { mesh_.send(msg); });
}

void
VipsL1::issueThrough(MemRequest req)
{
    CBSIM_ASSERT(!pendingThrough_, "second outstanding racy request");
    Message msg;
    msg.src = node_;
    msg.dst = AddrLayout::bankOf(req.addr, numBanks_);
    msg.dstPort = Port::Bank;
    msg.requester = core_;
    msg.addr = AddrLayout::wordAlign(req.addr);
    msg.sync = req.sync;
    msg.spin = req.spinHint;
    msg.txn = nextTxn_++;

    switch (req.op) {
      case MemOp::LdThrough:
        msg.type = MsgType::LdThrough;
        break;
      case MemOp::LdCb:
        msg.type = MsgType::GetCB;
        break;
      case MemOp::StThrough:
        msg.type = MsgType::StThrough;
        msg.value = req.storeValue;
        break;
      case MemOp::StCb1:
        msg.type = MsgType::StCb1;
        msg.value = req.storeValue;
        break;
      case MemOp::StCb0:
        msg.type = MsgType::StCb0;
        msg.value = req.storeValue;
        break;
      case MemOp::Atomic:
        msg.type = MsgType::AtomicReq;
        msg.atomicFunc = req.func;
        msg.atomicOperand = req.operand;
        msg.atomicCompare = req.compare;
        msg.wakePolicy = req.wake;
        msg.loadIsCallback = req.loadIsCallback;
        break;
      default:
        panic("issueThrough: not a racy op");
    }

    pendingThrough_.emplace(PendingThrough{std::move(req), msg.txn});
    mesh_.send(msg);
}

void
VipsL1::flushLine(Line& line)
{
    if (line.state.dirty == 0)
        return;
    wtFlushes_.inc();
    Message msg;
    msg.type = MsgType::WtFlush;
    msg.src = node_;
    msg.dst = AddrLayout::bankOf(line.tag, numBanks_);
    msg.dstPort = Port::Bank;
    msg.requester = core_;
    msg.addr = line.tag;
    msg.wordMask = line.state.dirty;
    msg.txn = nextTxn_++;
    line.state.dirty = 0;
    ++outstandingFlushAcks_;
    mesh_.send(msg);
}

void
VipsL1::maybeFinishFence()
{
    if (fenceDone_ && outstandingFlushAcks_ == 0) {
        auto done = std::move(fenceDone_);
        fenceDone_ = nullptr;
        done();
    }
}

void
VipsL1::selfDowngrade(FenceCompletion done)
{
    CBSIM_ASSERT(!fenceDone_, "overlapping fences");
    array_.forEachValid([this](Line& line) { flushLine(line); });
    if (outstandingFlushAcks_ == 0) {
        // Nothing dirty: complete after one cycle.
        eq_.schedule(1, std::move(done));
        return;
    }
    fenceDone_ = std::move(done);
}

void
VipsL1::selfInvalidate(FenceCompletion done)
{
    if (faults_ != nullptr) {
        // Fault injection: perturb when the fence takes effect. The
        // core stays blocked on the fence, so a bounded delay must not
        // change results — the soak tests assert exactly that.
        const Tick delay = faults_->selfInvlDelay();
        if (delay > 0) {
            eq_.schedule(delay, [this, done = std::move(done)]() mutable {
                selfInvalidateNow(std::move(done));
            });
            return;
        }
    }
    selfInvalidateNow(std::move(done));
}

void
VipsL1::selfInvalidateNow(FenceCompletion done)
{
    CBSIM_ASSERT(!fenceDone_, "overlapping fences");
    // Footnote 7: a self-invl fence first self-downgrades transient dirty
    // lines (so they can be invalidated), then discards Shared lines.
    array_.forEachValid([this](Line& line) {
        flushLine(line);
        if (!line.state.privatePage)
            array_.invalidate(line);
    });
    if (outstandingFlushAcks_ == 0) {
        eq_.schedule(1, std::move(done));
        return;
    }
    fenceDone_ = std::move(done);
}

void
VipsL1::reclassifyPage(Addr page_base)
{
    array_.forEachValid([this, page_base](Line& line) {
        if (AddrLayout::pageAlign(line.tag) == page_base) {
            flushLine(line);
            array_.invalidate(line);
        }
    });
}

void
VipsL1::handleMessage(const Message& msg)
{
    switch (msg.type) {
      case MsgType::Data: {
        // DRF fill response.
        CBSIM_ASSERT(pendingFill_ && pendingFill_->lineAddr == msg.addr,
                     "unexpected fill");
        PendingFill p = std::move(*pendingFill_);
        pendingFill_.reset();

        auto* victim = array_.victim(msg.addr);
        if (victim->valid)
            flushLine(*victim);
        array_.install(*victim, msg.addr);
        accesses_.inc(); // fill write
        victim->state.privatePage =
            classifier_.classify(msg.addr, core_) == PageClass::Private;

        Word result = 0;
        if (p.req.op == MemOp::Load) {
            result = data_.read(p.req.addr);
        } else {
            data_.write(p.req.addr, p.req.storeValue);
            victim->state.dirty |=
                1u << AddrLayout::wordInLine(p.req.addr);
        }
        eq_.schedule(l1Latency_,
                     [cb = p.req.onComplete, result] { cb(result); });
        break;
      }

      case MsgType::DataWord:
      case MsgType::WakeUp: {
        // Completion of a racy load/atomic (immediate or woken).
        CBSIM_ASSERT(pendingThrough_, "through response without request");
        PendingThrough p = std::move(*pendingThrough_);
        pendingThrough_.reset();
        p.req.onComplete(msg.value);
        break;
      }

      case MsgType::Ack: {
        if (pendingThrough_ && msg.txn == pendingThrough_->txn) {
            // Racy store completion (blocking, §3.2).
            PendingThrough p = std::move(*pendingThrough_);
            pendingThrough_.reset();
            p.req.onComplete(0);
        } else {
            // Write-through flush ack.
            CBSIM_ASSERT(outstandingFlushAcks_ > 0, "stray flush ack");
            --outstandingFlushAcks_;
            maybeFinishFence();
        }
        break;
      }

      default:
        panic("VipsL1: unexpected message ", msg.toString());
    }
}

bool
VipsL1::cached(Addr addr) const
{
    return array_.find(addr) != nullptr;
}

std::uint32_t
VipsL1::dirtyMask(Addr addr) const
{
    const auto* line = array_.find(addr);
    return line ? line->state.dirty : 0;
}

void
VipsL1::dumpDebug(JsonWriter& w) const
{
    w.beginObject();
    w.field("protocol", "vips");
    w.field("core", static_cast<std::uint64_t>(core_));
    w.field("cached_lines",
            static_cast<std::uint64_t>(array_.validCount()));
    w.field("outstanding_flush_acks",
            static_cast<std::uint64_t>(outstandingFlushAcks_));
    w.field("fence_pending", static_cast<bool>(fenceDone_));
    w.key("pending_fill");
    if (pendingFill_) {
        w.beginObject();
        w.field("line",
                static_cast<std::uint64_t>(pendingFill_->lineAddr));
        w.endObject();
    } else {
        w.null();
    }
    w.key("pending_through");
    if (pendingThrough_) {
        w.beginObject();
        w.field("addr",
                static_cast<std::uint64_t>(pendingThrough_->req.addr));
        w.field("txn", pendingThrough_->txn);
        w.endObject();
    } else {
        w.null();
    }
    w.endObject();
}

} // namespace cbsim
