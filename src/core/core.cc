#include "core/core.hh"

#include "harness/json.hh"
#include "obs/attribution.hh"
#include "obs/causal.hh"
#include "obs/trace_export.hh"
#include "sim/log.hh"

namespace cbsim {

void
SyncStats::registerStats(const StatsScope& scope)
{
    for (std::size_t k = 1; k < numKinds; ++k) {
        const StatsScope kind =
            scope.scope(syncKindName(static_cast<SyncKind>(k)));
        kind.add("latency", latency[k]);
        kind.add("completions", completions[k]);
    }
}

Core::Core(CoreId id, EventQueue& eq, L1Controller& l1,
           const BackoffConfig& backoff, SyncStats& sync_stats,
           std::function<void()> on_done)
    : id_(id), eq_(eq), l1_(l1), backoff_(backoff),
      syncStats_(sync_stats), onDone_(std::move(on_done))
{
    recordStart_.fill(maxTick);
}

void
Core::setProgram(Program program)
{
    program_ = std::move(program);
    pc_ = 0;
}

void
Core::start()
{
    CBSIM_ASSERT(!program_.empty(), "core started without a program");
    eq_.scheduleTick(0, this);
}

void
Core::step()
{
    // Batch-execute ALU/control instructions without scheduling an event
    // per instruction; stop at memory ops, fences, and Done.
    Tick t = 0; // offset from eq_.now()
    std::uint64_t guard = 0;
    while (true) {
        if (++guard > 10'000'000ULL)
            panic("core ", id_, ": runaway ALU loop at pc ", pc_);

        const Instruction& ins = program_.at(pc_);
        instructions_.inc();
        switch (ins.op) {
          case Opcode::MovImm:
            regs_[ins.rd] = ins.imm;
            ++pc_;
            t += 1;
            break;
          case Opcode::Mov:
            regs_[ins.rd] = regs_[ins.rs1];
            ++pc_;
            t += 1;
            break;
          case Opcode::Add:
            regs_[ins.rd] = regs_[ins.rs1] + regs_[ins.rs2];
            ++pc_;
            t += 1;
            break;
          case Opcode::AddImm:
            regs_[ins.rd] = regs_[ins.rs1] + ins.imm;
            ++pc_;
            t += 1;
            break;
          case Opcode::Sub:
            regs_[ins.rd] = regs_[ins.rs1] - regs_[ins.rs2];
            ++pc_;
            t += 1;
            break;
          case Opcode::Not:
            regs_[ins.rd] = regs_[ins.rs1] == 0 ? 1 : 0;
            ++pc_;
            t += 1;
            break;
          case Opcode::Beq:
            pc_ = regs_[ins.rs1] == regs_[ins.rs2] ? ins.imm : pc_ + 1;
            t += 1;
            break;
          case Opcode::Bne:
            pc_ = regs_[ins.rs1] != regs_[ins.rs2] ? ins.imm : pc_ + 1;
            t += 1;
            break;
          case Opcode::Blt:
            pc_ = regs_[ins.rs1] < regs_[ins.rs2] ? ins.imm : pc_ + 1;
            t += 1;
            break;
          case Opcode::Beqz:
            pc_ = regs_[ins.rs1] == 0 ? ins.imm : pc_ + 1;
            t += 1;
            break;
          case Opcode::Bnez:
            pc_ = regs_[ins.rs1] != 0 ? ins.imm : pc_ + 1;
            t += 1;
            break;
          case Opcode::Jump:
            pc_ = ins.imm;
            t += 1;
            break;
          case Opcode::Work:
            t += ins.useImm ? ins.imm : regs_[ins.rs1];
            t += 1;
            ++pc_;
            break;
          case Opcode::Record:
            handleRecord(ins, eq_.now() + t);
            ++pc_;
            break; // zero-cost marker
          case Opcode::SelfInvl:
          case Opcode::SelfDown: {
            const bool invl = ins.op == Opcode::SelfInvl;
            ++pc_;
            backoff_.reset();
            eq_.schedule(t, [this, invl] {
                auto resume = [this] { eq_.scheduleTick(1, this); };
                if (invl)
                    l1_.selfInvalidate(resume);
                else
                    l1_.selfDowngrade(resume);
            });
            return;
          }
          case Opcode::Done:
            finished_ = true;
            doneTick_ = eq_.now() + t;
            onDone_();
            return;
          default: {
            CBSIM_ASSERT(isMemory(ins.op), "unhandled opcode");
            memOps_.inc();
            Tick delay = t;
            if (ins.spin) {
                const Tick b = backoff_.nextDelay(pc_);
                if (backoff_.consecutiveRetries() > 0) {
                    spinRetries_.inc();
                    if (attr_ != nullptr) {
                        const Addr ea = regs_[ins.addrReg] +
                                        static_cast<Addr>(ins.offset);
                        attr_->row(ea).backoffIters++;
                    }
                }
                backoffCycles_.inc(b);
                delay += b;
            } else {
                backoff_.reset();
            }
            issueMemory(ins, delay);
            return;
          }
        }
    }
}

void
Core::handleRecord(const Instruction& ins, Tick when)
{
    const auto k = static_cast<std::size_t>(ins.record);
    if (ins.recordStart) {
        recordStart_[k] = when;
    } else {
        CBSIM_ASSERT(recordStart_[k] != maxTick,
                     "Record end without start, core ", id_);
        syncStats_.latency[k].sample(when - recordStart_[k]);
        syncStats_.completions[k].inc();
        recordStart_[k] = maxTick;
    }
}

void
Core::issueMemory(const Instruction& ins, Tick delay)
{
    MemRequest req;
    req.addr = regs_[ins.addrReg] + static_cast<Addr>(ins.offset);
    req.sync = ins.sync;
    req.spinHint = ins.spin;
    const Word value = ins.useImm ? ins.imm : regs_[ins.rs1];

    switch (ins.op) {
      case Opcode::Ld:
        req.op = MemOp::Load;
        break;
      case Opcode::St:
        req.op = MemOp::Store;
        req.storeValue = value;
        break;
      case Opcode::LdThrough:
        req.op = MemOp::LdThrough;
        break;
      case Opcode::LdCb:
        req.op = MemOp::LdCb;
        break;
      case Opcode::StThrough:
        req.op = MemOp::StThrough;
        req.storeValue = value;
        break;
      case Opcode::StCb1:
        req.op = MemOp::StCb1;
        req.storeValue = value;
        break;
      case Opcode::StCb0:
        req.op = MemOp::StCb0;
        req.storeValue = value;
        break;
      case Opcode::Atomic:
        req.op = MemOp::Atomic;
        req.func = ins.func;
        req.operand = value;
        req.compare = ins.compare;
        req.loadIsCallback = ins.ldCb;
        req.wake = ins.wake;
        break;
      default:
        panic("issueMemory: not a memory opcode");
    }

    // The core blocks on the request, so the in-flight state lives in
    // members and the completion is a plain {trampoline, this} pair —
    // the request stays trivially copyable end to end.
    pendingIns_ = &ins;
    pendingAddr_ = req.addr;
    issuedAt_ = eq_.now() + delay;
    pendingBlockingCb_ = ins.op == Opcode::LdCb ||
                         (ins.op == Opcode::Atomic && ins.ldCb);
    req.onComplete = {
        [](void* c, Word v) { static_cast<Core*>(c)->completeMemory(v); },
        this};
    eq_.schedule(delay, [this, req]() { l1_.access(req); });
}

void
Core::completeMemory(Word value)
{
    const Instruction& ins = *pendingIns_;
    const Tick stalled = eq_.now() - issuedAt_;
    stallCycles_.inc(stalled);
    stallLatency_.sample(stalled);
    if (pendingBlockingCb_) {
        cbBlockedCycles_.inc(stalled);
        cbWakeLatency_.sample(stalled);
    }
    if (attr_ != nullptr && (ins.sync || ins.spin))
        attr_->row(pendingAddr_).cycles += stalled;
    if (causal_ != nullptr) {
        causal_->recordStall(id_, pendingAddr_, issuedAt_, eq_.now(),
                             pendingBlockingCb_, ins.spin, ins.sync);
    }
    if (trace_ != nullptr) {
        const char* state = pendingBlockingCb_ ? "cbdir-blocked"
                            : ins.spin         ? "spin"
                                               : "mem";
        trace_->coreSlice(id_, state, issuedAt_, eq_.now());
    }
    switch (ins.op) {
      case Opcode::Ld:
      case Opcode::LdThrough:
      case Opcode::LdCb:
      case Opcode::Atomic:
        regs_[ins.rd] = value;
        break;
      default:
        break;
    }
    pendingIns_ = nullptr; // completed: the core is no longer blocked
    ++pc_;
    eq_.scheduleTick(1, this);
}

void
Core::dumpDebug(JsonWriter& w) const
{
    w.beginObject();
    w.field("core", static_cast<std::uint64_t>(id_));
    w.field("pc", pc_);
    w.field("finished", finished_);
    w.field("instructions", instructions_.value());
    w.key("blocked_on");
    if (pendingIns_ != nullptr) {
        w.beginObject();
        w.field("op", opcodeName(pendingIns_->op));
        w.field("addr", static_cast<std::uint64_t>(pendingAddr_));
        w.field("issued_at", issuedAt_);
        w.field("blocking_callback", pendingBlockingCb_);
        w.endObject();
    } else {
        w.null();
    }
    w.endObject();
}

void
Core::registerStats(const StatsScope& scope)
{
    scope.add("instructions", instructions_);
    scope.add("mem_ops", memOps_);
    scope.add("spin_retries", spinRetries_);
    scope.add("backoff_cycles", backoffCycles_);
    scope.add("stall_cycles", stallCycles_);
    scope.add("cb_blocked_cycles", cbBlockedCycles_);
    scope.add("stall_latency", stallLatency_);
    scope.add("cb_wake_latency", cbWakeLatency_);
}

} // namespace cbsim
