/**
 * @file
 * In-order, blocking core model.
 *
 * One instruction per cycle for ALU/control; memory operations block the
 * core until the L1 controller completes them (the paper's sync ops are
 * blocking by construction, §3.2). Consecutive re-issues of a spin-marked
 * racy load are throttled by the configured exponential back-off policy.
 */

#ifndef CBSIM_CORE_CORE_HH
#define CBSIM_CORE_CORE_HH

#include <array>
#include <functional>

#include "coherence/backoff/backoff.hh"
#include "coherence/controller.hh"
#include "isa/assembler.hh"
#include "obs/registry.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace cbsim {

class JsonWriter;
class TraceExporter;

/** Chip-wide synchronization instrumentation shared by all cores. */
struct SyncStats
{
    static constexpr std::size_t numKinds =
        static_cast<std::size_t>(SyncKind::NumKinds);

    std::array<Histogram, numKinds> latency;
    std::array<Counter, numKinds> completions;

    void registerStats(const StatsScope& scope);
};

/** A single in-order core executing a mini-ISA program. */
class Core : public Clocked
{
  public:
    /**
     * @param id       this core's id (also readable by programs via reg
     *                 initialization in the program generator)
     * @param on_done  invoked once when the program executes Done
     */
    Core(CoreId id, EventQueue& eq, L1Controller& l1,
         const BackoffConfig& backoff, SyncStats& sync_stats,
         std::function<void()> on_done);

    /** Load the thread's program; must precede start(). */
    void setProgram(Program program);

    /** Schedule the first instruction at the current tick. */
    void start();

    CoreId id() const { return id_; }
    bool finished() const { return finished_; }
    Tick doneTick() const { return doneTick_; }

    /** Architectural register read (for tests). */
    Word reg(Reg r) const { return regs_[r]; }

    /** Instructions retired so far (the watchdog's progress probe). */
    std::uint64_t instructionsRetired() const
    {
        return instructions_.value();
    }

    /** True while a memory operation holds the core blocked. */
    bool blockedOnMemory() const { return pendingIns_ != nullptr; }

    /** Effective address of the blocking op; valid iff blockedOnMemory. */
    Addr blockedAddr() const { return pendingAddr_; }

    /**
     * True if the blocking op is a callback read (ld_cb or callback
     * RMW) — i.e. the core may legitimately sit parked in the callback
     * directory (invariant: CB waiter bits ⊆ such cores).
     */
    bool
    blockedOnCallback() const
    {
        return pendingIns_ != nullptr && pendingBlockingCb_;
    }

    /**
     * Emit this core's execution state (pc, finished, the blocked-on
     * memory op if any) into @p w for forensic dumps.
     */
    void dumpDebug(JsonWriter& w) const;

    void registerStats(const StatsScope& scope);

    /**
     * Enable trace export: each completed memory stall becomes a
     * duration slice on this core's track. Null (default) costs one
     * compare per completion.
     */
    void setTrace(TraceExporter* trace) { trace_ = trace; }

    /**
     * Enable contention attribution: sync/spin stall cycles and
     * back-off iterations are charged to the target line in this
     * core's shard. Null (default) costs one compare per site.
     */
    void setAttribution(AttributionTable* attr) { attr_ = attr; }

    /**
     * Enable causal sync-episode tracing: every completed memory stall
     * window is recorded for the release→wake→resume segment stitcher
     * (docs/OBSERVABILITY.md §Causal tracing). Null (default) costs one
     * compare per completion.
     */
    void setCausal(CausalShard* causal) { causal_ = causal; }

  private:
    /** Clocked wake-up: resume execution (see scheduleTick sites). */
    void tick() override { step(); }

    void step();
    void issueMemory(const Instruction& ins, Tick delay);
    void completeMemory(Word value);
    void handleRecord(const Instruction& ins, Tick when);

    CoreId id_;
    EventQueue& eq_;
    L1Controller& l1_;
    BackoffPolicy backoff_;
    SyncStats& syncStats_;
    std::function<void()> onDone_;

    Program program_;
    std::array<Word, numRegs> regs_{};
    std::uint64_t pc_ = 0;
    bool finished_ = false;
    Tick doneTick_ = 0;

    /** Open Record regions: start tick per SyncKind. */
    std::array<Tick, SyncStats::numKinds> recordStart_{};

    /**
     * The in-flight memory instruction (the core blocks on it, so at
     * most one exists). Keeping this state in the core lets the
     * completion callback capture just `this` and stay within
     * std::function's small-buffer optimization — the memory path
     * allocates nothing per request.
     */
    const Instruction* pendingIns_ = nullptr;
    Tick issuedAt_ = 0;
    bool pendingBlockingCb_ = false;
    Addr pendingAddr_ = 0; ///< effective address of pendingIns_

    Counter instructions_;
    Counter memOps_;
    Counter spinRetries_;
    Counter backoffCycles_;

    /** All cycles stalled on memory operations. */
    Counter stallCycles_;
    /**
     * Stall cycles on blocking callback reads (ld_cb and callback
     * RMWs) — the time a core could spend in a power-saving pause
     * state instead of waiting (paper §2.1; quantified by
     * bench_ablation_pause).
     */
    Counter cbBlockedCycles_;

    /** Distribution of per-operation memory stall times. */
    Histogram stallLatency_;
    /**
     * Distribution of blocking-callback wait times (park to wake-up
     * response) — the wake-up latency tail the callback mechanism is
     * judged on.
     */
    Histogram cbWakeLatency_;

    TraceExporter* trace_ = nullptr;
    AttributionTable* attr_ = nullptr;
    CausalShard* causal_ = nullptr;
};

} // namespace cbsim

#endif // CBSIM_CORE_CORE_HH
