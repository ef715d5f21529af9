#include "coherence/vips/vips_llc.hh"

#include "debug/fault_injection.hh"
#include "harness/json.hh"
#include "mem/addr.hh"
#include "obs/attribution.hh"
#include "obs/causal.hh"
#include "obs/trace_export.hh"
#include "sim/log.hh"

namespace cbsim {

VipsLlcBank::VipsLlcBank(BankId bank, EventQueue& eq, Mesh& mesh,
                         DataStore& data, MemoryModel& memory,
                         const CacheGeometry& geom, const LlcTiming& timing,
                         unsigned cb_entries, Tick cb_latency,
                         unsigned num_cores)
    : bank_(bank), eq_(eq), mesh_(mesh), data_(data), memory_(memory),
      array_(geom), timing_(timing), cbLatency_(cb_latency), pipe_(eq),
      cbPipe_(eq), cbdir_(cb_entries, num_cores)
{
}

void
VipsLlcBank::handleMessage(const Message& msg)
{
    dispatch(msg);
}

void
VipsLlcBank::dispatch(const Message& msg)
{
    const Addr line_addr = AddrLayout::lineAlign(msg.addr);
    if (locks_.isLocked(line_addr)) {
        locks_.defer(line_addr, [this, msg] { dispatch(msg); });
        return;
    }
    if (!ensurePresent(msg))
        return;

    switch (msg.type) {
      case MsgType::GetS:
        handleGetS(msg);
        break;
      case MsgType::WtFlush:
        handleWtFlush(msg);
        break;
      case MsgType::LdThrough:
        handleLdThrough(msg);
        break;
      case MsgType::GetCB:
        handleGetCB(msg);
        break;
      case MsgType::StThrough:
        handleStore(msg, WakePolicy::All);
        break;
      case MsgType::StCb1:
        handleStore(msg, WakePolicy::One);
        break;
      case MsgType::StCb0:
        handleStore(msg, WakePolicy::Zero);
        break;
      case MsgType::AtomicReq:
        handleAtomic(msg);
        break;
      default:
        panic("VipsLlcBank: unexpected message ", msg.toString());
    }
}

bool
VipsLlcBank::ensurePresent(const Message& msg)
{
    const Addr line_addr = AddrLayout::lineAlign(msg.addr);
    if (auto* line = array_.find(line_addr)) {
        array_.touch(*line);
        return true;
    }
    locks_.lock(line_addr);
    memory_.read(line_addr,
                 [this, msg, line_addr] { fillLine(msg, line_addr); });
    return false;
}

void
VipsLlcBank::fillLine(const Message& msg, Addr line_addr)
{
    auto* victim = array_.victimIf(
        line_addr, [this](const Line& l) { return !locks_.isLocked(l.tag); });
    if (!victim) {
        eq_.schedule(4, [this, msg, line_addr] { fillLine(msg, line_addr); });
        return;
    }
    if (array_.isValid(*victim))
        memory_.write(victim->tag); // writeback (write-through LLC: clean)
    array_.install(*victim, line_addr);
    accesses_.inc();
    auto deferred = locks_.unlock(line_addr);
    dispatch(msg);
    for (auto& op : deferred)
        eq_.schedule(0, std::move(op));
}

void
VipsLlcBank::chargeAccess(const Message& msg)
{
    accesses_.inc();
    if (msg.sync)
        syncAccesses_.inc();
}

void
VipsLlcBank::sendToCore(MsgType type, const Message& req, Word value,
                        Tick latency)
{
    Message rsp;
    rsp.type = type;
    rsp.src = bank_;
    rsp.dst = req.src;
    rsp.dstPort = Port::Core;
    rsp.requester = req.requester;
    rsp.addr = req.addr;
    rsp.value = value;
    rsp.txn = req.txn;
    pipe_.access(latency, [this, rsp] { mesh_.send(rsp); });
}

void
VipsLlcBank::handleGetS(const Message& msg)
{
    chargeAccess(msg);
    sendToCore(MsgType::Data, msg, 0, timing_.dataLatency);
}

void
VipsLlcBank::handleWtFlush(const Message& msg)
{
    // Values were committed functionally at L1 store time; the flush is a
    // timing/traffic event that makes them visible at the LLC.
    chargeAccess(msg);
    sendToCore(MsgType::Ack, msg, 0, timing_.dataLatency);
}

void
VipsLlcBank::maybeInjectEviction()
{
    if (faults_ == nullptr || !faults_->cbEvictNow())
        return;
    CbReadResult res = cbdir_.forceEvictOne();
    if (!res.evictionHappened)
        return;
    faults_->noteCbForcedEviction();
    handleEviction(res);
}

void
VipsLlcBank::handleLdThrough(const Message& msg)
{
    // The callback directory is consulted in parallel with the LLC
    // access (Fig. 2): consume the F/E state but never block.
    maybeInjectEviction();
    cbdirAccesses_.inc();
    cbdir_.ldThrough(msg.addr, msg.requester);
    if (attr_ != nullptr && msg.spin)
        attr_->row(msg.addr).spinRereads++;
    chargeAccess(msg);
    sendToCore(MsgType::DataWord, msg, data_.read(msg.addr),
               timing_.dataLatency);
}

void
VipsLlcBank::park(const Message& msg)
{
    waiters_[AddrLayout::wordAlign(msg.addr)][msg.requester] =
        Waiter{msg, eq_.now()};
    if (attr_ != nullptr)
        attr_->row(msg.addr).parks++;
    if (causal_ != nullptr)
        causal_->recordPark(msg.addr, msg.requester, eq_.now());
    if (trace_ != nullptr) {
        trace_->park(bank_, msg.requester, eq_.now());
        trace_->linePark(msg.addr, msg.requester, eq_.now());
    }
}

void
VipsLlcBank::handleGetCB(const Message& msg)
{
    // GetCB consults the callback directory *before* the LLC (Fig. 2).
    maybeInjectEviction();
    cbdirAccesses_.inc();
    CbReadResult res = cbdir_.ldCb(msg.addr, msg.requester);
    handleEviction(res);
    if (res.blocked) {
        park(msg);
        return; // no LLC access, no response until a write wakes us
    }
    chargeAccess(msg);
    sendToCore(MsgType::DataWord, msg, data_.read(msg.addr),
               cbLatency_ + timing_.dataLatency);
}

void
VipsLlcBank::handleStore(const Message& msg, WakePolicy policy)
{
    maybeInjectEviction();
    data_.write(msg.addr, msg.value);
    chargeAccess(msg);
    cbdirAccesses_.inc();
    CbWriteResult wr = cbdir_.store(msg.addr, msg.requester, policy);
    sendToCore(MsgType::Ack, msg, 0, timing_.dataLatency);
    processWakes(AddrLayout::wordAlign(msg.addr), wr.wake,
                 /*evicted=*/false, msg.requester);
}

void
VipsLlcBank::handleAtomic(const Message& msg)
{
    maybeInjectEviction();
    cbdirAccesses_.inc();
    if (msg.loadIsCallback) {
        CbReadResult res = cbdir_.ldCb(msg.addr, msg.requester);
        handleEviction(res);
        if (res.blocked) {
            park(msg);
            return; // the whole RMW is held off in the callback directory
        }
    } else {
        // The read half behaves as a load-through for the F/E state.
        cbdir_.ldThrough(msg.addr, msg.requester);
    }
    std::vector<CoreId> wake_queue;
    executeRmw(msg, wake_queue);
    processWakes(AddrLayout::wordAlign(msg.addr), wake_queue,
                 /*evicted=*/false, msg.requester);
}

void
VipsLlcBank::executeRmw(const Message& req, std::vector<CoreId>& wake_queue)
{
    const Word old = data_.read(req.addr);
    const auto out =
        evalAtomic(req.atomicFunc, old, req.atomicOperand,
                   req.atomicCompare);
    chargeAccess(req);
    if (out.doWrite) {
        data_.write(req.addr, out.newValue);
        const WakePolicy policy = req.wakePolicy == WakePolicy::None
                                      ? WakePolicy::All
                                      : req.wakePolicy;
        CbWriteResult wr = cbdir_.store(req.addr, req.requester, policy);
        for (CoreId c : wr.wake)
            wake_queue.push_back(c);
    }
    sendToCore(MsgType::DataWord, req, old,
               cbLatency_ + timing_.dataLatency);
}

void
VipsLlcBank::processWakes(Addr word, const std::vector<CoreId>& initial,
                          bool evicted, CoreId releaser)
{
    std::vector<CoreId> queue = initial;
    std::size_t head = 0;
    while (head < queue.size()) {
        const CoreId c = queue[head++];
        auto word_it = waiters_.find(word);
        CBSIM_ASSERT(word_it != waiters_.end(),
                     "wake with no parked waiters");
        auto it = word_it->second.find(c);
        CBSIM_ASSERT(it != word_it->second.end(),
                     "wake for a core that is not parked");
        const Message req = it->second.req;
        const Tick parked_at = it->second.parkedAt;
        word_it->second.erase(it);
        if (word_it->second.empty())
            waiters_.erase(word_it);

        wakesSent_.inc();
        if (attr_ != nullptr) {
            AttributionRow& row = attr_->row(word);
            if (evicted)
                row.wakeEvictions++;
            else
                row.wakes++;
            row.parkTicks.sample(eq_.now() - parked_at);
        }
        if (causal_ != nullptr) {
            causal_->recordWake(word, c, eq_.now(), evicted);
            // Flow arrow releaser→directory→waiter: emitted entirely
            // bank-side, so the three events land back to back.
            if (trace_ != nullptr && releaser != invalidCore)
                trace_->wakeFlow(bank_, word, releaser, c, eq_.now());
        }
        if (trace_ != nullptr) {
            trace_->wake(bank_, c, eq_.now(), evicted);
            trace_->lineWake(word, c, eq_.now());
        }
        if (req.type == MsgType::GetCB) {
            // The wake-up message carries the (new or, on eviction,
            // current) value straight to the core: {callback, write,
            // data} — three messages total.
            sendToCore(MsgType::WakeUp, req, data_.read(word),
                       timing_.dataLatency);
        } else {
            CBSIM_ASSERT(req.type == MsgType::AtomicReq, "bad waiter");
            // Woken RMW: re-executes atomically against the current
            // value. A premature wake (Fig. 5) simply fails its test and
            // the core retries.
            executeRmw(req, queue);
        }
    }
}

void
VipsLlcBank::handleEviction(const CbReadResult& res)
{
    if (!res.evictionHappened || res.evictedWaiters.empty())
        return;
    // Replacement loses the bits; all parked waiters are satisfied with
    // the current value (Fig. 3 step 5). No core released anything, so
    // there is no flow-arrow source.
    processWakes(res.evictedWord, res.evictedWaiters, /*evicted=*/true,
                 invalidCore);
}

std::size_t
VipsLlcBank::parkedWaiters() const
{
    std::size_t n = 0;
    for (const auto& [word, m] : waiters_)
        n += m.size();
    return n;
}

std::vector<std::pair<Addr, CoreId>>
VipsLlcBank::parkedWaiterList() const
{
    std::vector<std::pair<Addr, CoreId>> out;
    for (const auto& [word, m] : waiters_) {
        for (const auto& [core, waiter] : m)
            out.emplace_back(word, core);
    }
    return out;
}

void
VipsLlcBank::dumpDebug(JsonWriter& w) const
{
    w.beginObject();
    w.field("protocol", "vips");
    w.field("bank", static_cast<std::uint64_t>(bank_));
    w.key("cbdir_entries");
    w.beginArray();
    for (const auto& e : cbdir_.entryStates()) {
        w.beginObject();
        w.field("word", static_cast<std::uint64_t>(e.word));
        w.field("cb_mask", e.cb);
        w.field("fe_mask", e.fe);
        w.field("mode", e.aoOne ? "one" : "all");
        w.endObject();
    }
    w.endArray();
    w.key("parked_waiters");
    w.beginArray();
    for (const auto& [word, m] : waiters_) {
        for (const auto& [core, waiter] : m) {
            w.beginObject();
            w.field("word", static_cast<std::uint64_t>(word));
            w.field("core", static_cast<std::uint64_t>(core));
            w.field("request", msgTypeName(waiter.req.type));
            w.endObject();
        }
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
