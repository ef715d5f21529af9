/**
 * @file
 * Top-level system builder: wires cores, L1s, LLC banks, the mesh, the
 * memory model, and (for VIPS) the page classifier and the per-bank
 * callback directories into a runnable chip.
 *
 * The chip owns one EventQueue and every component schedules on it
 * directly (DESIGN.md §"Why there is one kernel").
 */

#ifndef CBSIM_SYSTEM_CHIP_HH
#define CBSIM_SYSTEM_CHIP_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coherence/mesi/mesi_l1.hh"
#include "coherence/mesi/mesi_llc.hh"
#include "coherence/vips/page_classifier.hh"
#include "coherence/vips/vips_l1.hh"
#include "coherence/vips/vips_llc.hh"
#include "core/core.hh"
#include "mem/data_store.hh"
#include "mem/memory_model.hh"
#include "sim/event_queue.hh"
#include "system/chip_config.hh"
#include "system/run_result.hh"

namespace cbsim {

class Watchdog;
class InvariantChecker;
class FaultInjector;
class EpochSampler;
class TraceExporter;
class CausalTracker;

/** A complete simulated CMP. Build, load programs, run once. */
class Chip
{
  public:
    explicit Chip(const ChipConfig& cfg);
    ~Chip(); // out-of-line: debug members are incomplete types here

    /** Load @p program onto core @p core (before run()). */
    void setProgram(CoreId core, Program program);

    /**
     * Name data lines for trace tracks and contention rows (a workload's
     * SyncLayout::lineNames()). The table is copied only when trace
     * export or attribution is on, its two readers.
     */
    void setLineNames(const std::map<Addr, std::string>& names);

    /**
     * Run to completion (all cores executed Done).
     * @return aggregated metrics
     */
    RunResult run();

    // --- introspection (tests, examples) -------------------------------
    const ChipConfig& config() const { return cfg_; }
    EventQueue& eventQueue() { return eq_; }
    DataStore& dataStore() { return data_; }
    SyncStats& syncStats() { return syncStats_; }
    const Mesh& mesh() const { return mesh_; }
    const MemoryModel& memory() const { return memory_; }
    const PageClassifier& classifier() const { return classifier_; }

    /** The trace exporter, or null when trace export is off. */
    const TraceExporter* traceExporter() const { return trace_.get(); }
    /** The causal tracker, or null when causal tracing is off. */
    const CausalTracker* causalTracker() const { return causal_.get(); }
    Core& core(CoreId i) { return *cores_.at(i); }
    L1Controller& l1(CoreId i) { return *l1s_.at(i); }
    LlcBank& bank(BankId i) { return *banks_.at(i); }

    /** VIPS-only: the callback directory of bank @p i (for tests). */
    const CallbackDirectory& callbackDirectory(BankId i) const;

    unsigned finishedCores() const { return finished_; }

    /**
     * Compose the forensic JSON report for the current machine state
     * (docs/ROBUSTNESS.md §Forensics) and emit it via
     * forensics::emitReport. Called automatically when run() fails;
     * public so tests can validate the schema directly.
     * @return the forensic file path, or "" if only stderr was written
     */
    std::string dumpForensics(const std::string& reason);

    /** Run the quiesce-time invariant pass now (empty = clean). */
    std::vector<std::string> checkInvariantsNow() const;

  private:
    void buildDebug();
    void buildObs();

    /** LLC data accesses summed over every bank. */
    std::uint64_t llcAccesses() const;

    /** Sum the components' counters into a RunResult. */
    RunResult totals(Tick cycles) const;

    ChipConfig cfg_;
    EventQueue eq_;
    DataStore data_;
    Mesh mesh_;
    MemoryModel memory_;
    PageClassifier classifier_;
    SyncStats syncStats_;

    std::vector<std::unique_ptr<L1Controller>> l1s_;
    std::vector<std::unique_ptr<LlcBank>> banks_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<VipsL1*> vipsL1s_;         ///< non-owning, VIPS only
    std::vector<VipsLlcBank*> vipsBanks_;  ///< non-owning, VIPS only
    std::vector<MesiL1*> mesiL1s_;         ///< non-owning, MESI only
    std::vector<MesiLlcBank*> mesiBanks_;  ///< non-owning, MESI only

    /** Robustness subsystem; all null when the debug config is off. */
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<InvariantChecker> checker_;
    std::unique_ptr<Watchdog> watchdog_;

    /** Observability subsystem; null when the obs config is off. */
    std::unique_ptr<EpochSampler> epochSampler_;
    std::unique_ptr<TraceExporter> trace_;

    /**
     * Causal sync-episode tracker; null when causal tracing is off. The
     * stitcher runs once at end of run.
     */
    std::unique_ptr<CausalTracker> causal_;

    /**
     * Contention attribution shards (one per instrumented component,
     * folded into RunResult::contention after the run); empty when
     * attribution is off.
     */
    std::vector<std::unique_ptr<AttributionTable>> attrShards_;

    /**
     * Data-line names (setLineNames), resolved against contended line
     * addresses after the run. Empty unless trace export or attribution
     * is on.
     */
    std::map<Addr, std::string> lineNames_;

    unsigned finished_ = 0;
    bool ran_ = false;
};

} // namespace cbsim

#endif // CBSIM_SYSTEM_CHIP_HH
