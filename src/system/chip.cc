#include "system/chip.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "debug/fault_injection.hh"
#include "debug/forensics.hh"
#include "debug/invariant_checker.hh"
#include "debug/noc_tracker.hh"
#include "debug/watchdog.hh"
#include "harness/json.hh"
#include "obs/attribution.hh"
#include "obs/causal.hh"
#include "obs/epoch.hh"
#include "obs/trace_export.hh"
#include "sim/log.hh"

namespace cbsim {

Chip::Chip(const ChipConfig& cfg)
    : cfg_(cfg), mesh_(eq_, cfg.noc, stats_.scope("noc")),
      memory_(eq_, cfg.memLatency, stats_.scope("mem"))
{
    cfg_.validate();
    // LLC banks see only their own residue class of line numbers; index
    // sets on the post-interleaving bits so the whole bank is usable.
    cfg_.llcBank.indexDivisor = cfg_.numCores;
    syncStats_.registerStats(stats_.scope("sync"));
    classifier_.registerStats(stats_.scope("pages"));

    const unsigned n = cfg_.numCores;
    l1s_.reserve(n);
    banks_.reserve(n);
    cores_.reserve(n);

    for (CoreId i = 0; i < n; ++i) {
        const auto node = static_cast<NodeId>(i);
        if (cfg_.protocol == ProtocolKind::Mesi) {
            auto l1 = std::make_unique<MesiL1>(
                i, node, eq_, mesh_, data_, cfg_.l1, cfg_.l1Latency, n,
                cfg_.backoff.pauseDelay);
            l1->registerStats(stats_.scope("l1." + std::to_string(i)));
            mesiL1s_.push_back(l1.get());
            auto bank = std::make_unique<MesiLlcBank>(
                static_cast<BankId>(i), eq_, mesh_, data_, memory_,
                cfg_.llcBank, cfg_.llc);
            bank->registerStats(stats_.scope("llc." + std::to_string(i)));
            mesiBanks_.push_back(bank.get());
            l1s_.push_back(std::move(l1));
            banks_.push_back(std::move(bank));
        } else {
            auto l1 = std::make_unique<VipsL1>(
                i, node, eq_, mesh_, data_, classifier_, cfg_.l1,
                cfg_.l1Latency, n);
            l1->registerStats(stats_.scope("l1." + std::to_string(i)));
            vipsL1s_.push_back(l1.get());
            auto bank = std::make_unique<VipsLlcBank>(
                static_cast<BankId>(i), eq_, mesh_, data_, memory_,
                cfg_.llcBank, cfg_.llc, cfg_.cbEntriesPerBank,
                cfg_.cbDirLatency, n);
            bank->registerStats(stats_.scope("llc." + std::to_string(i)));
            vipsBanks_.push_back(bank.get());
            l1s_.push_back(std::move(l1));
            banks_.push_back(std::move(bank));
        }

        mesh_.attach(node, Port::Core,
                     [l1 = l1s_.back().get()](const Message& m) {
                         l1->handleMessage(m);
                     });
        mesh_.attach(node, Port::Bank,
                     [bank = banks_.back().get()](const Message& m) {
                         bank->handleMessage(m);
                     });

        auto core = std::make_unique<Core>(
            i, eq_, *l1s_.back(), cfg_.backoff, syncStats_,
            [this] { ++finished_; });
        core->registerStats(stats_.scope("core." + std::to_string(i)));
        cores_.push_back(std::move(core));
    }

    if (cfg_.protocol == ProtocolKind::Vips) {
        classifier_.setTransitionHook(
            [this](CoreId prev_owner, Addr page_base) {
                vipsL1s_.at(prev_owner)->reclassifyPage(page_base);
            });
    }

    buildDebug();
    buildObs();
}

/**
 * Construct whichever observability components the obs config asks
 * for. Like buildDebug, everything-off (the default) creates nothing:
 * the hot paths see only null-pointer compares and one tick compare
 * per dispatched event-queue bucket.
 */
void
Chip::buildObs()
{
    const ObsConfig& obs = cfg_.debug.obs;

    if (obs.traceEnabled()) {
        trace_ = std::make_unique<TraceExporter>(cfg_.numCores,
                                                 cfg_.numCores);
        for (auto& core : cores_)
            core->setTrace(trace_.get());
        for (VipsLlcBank* bank : vipsBanks_)
            bank->setTrace(trace_.get());
    }

    if (obs.attributionEnabled()) {
        // One bounded shard per instrumented component, registered as
        // "<scope>.attr". Shards for components without attribution
        // sites (VIPS L1s) are not created.
        auto shard = [this](const std::string& scope) {
            attrShards_.push_back(std::make_unique<AttributionTable>());
            stats_.scope(scope).add("attr", *attrShards_.back());
            return attrShards_.back().get();
        };
        for (CoreId i = 0; i < cfg_.numCores; ++i)
            cores_[i]->setAttribution(shard("core." + std::to_string(i)));
        for (std::size_t i = 0; i < mesiL1s_.size(); ++i)
            mesiL1s_[i]->setAttribution(
                shard("l1." + std::to_string(i)));
        for (std::size_t i = 0; i < mesiBanks_.size(); ++i)
            mesiBanks_[i]->setAttribution(
                shard("llc." + std::to_string(i)));
        for (std::size_t i = 0; i < vipsBanks_.size(); ++i)
            vipsBanks_[i]->setAttribution(
                shard("llc." + std::to_string(i)));
    }

    if (obs.causalEnabled()) {
        causal_ = std::make_unique<CausalTracker>();
        CausalShard* shard = &causal_->shard();
        for (auto& core : cores_)
            core->setCausal(shard);
        for (MesiL1* l1 : mesiL1s_)
            l1->setCausal(shard);
        for (VipsLlcBank* bank : vipsBanks_)
            bank->setCausal(shard);
        mesh_.setCausal(shard);
    }

    if (trace_ != nullptr)
        trace_->setSymbols(&symbols_);

    if (obs.epochEnabled()) {
        epochSampler_ = std::make_unique<EpochSampler>(stats_, [this] {
            std::uint64_t blocked = 0;
            for (const auto& core : cores_)
                blocked += core->blockedOnMemory() ? 1 : 0;
            return blocked;
        });
        epochSampler_->setTrace(trace_.get());
        epochSampler_->install(eq_, obs.epochTicks);
    }
}

/**
 * Construct whichever robustness components the debug config asks for.
 * With everything off (the default) this creates nothing and installs
 * nothing — the hot paths see only null-pointer compares.
 */
void
Chip::buildDebug()
{
    const DebugConfig& dbg = cfg_.debug;

    if (dbg.faults.enabled()) {
        faults_ = std::make_unique<FaultInjector>(dbg.faults);
        // Protocol-level injection sites exist only on VIPS (callback
        // directory, self-invalidation); a MESI chip under a fault plan
        // still gets the NoC delay perturbation below.
        for (VipsL1* l1 : vipsL1s_)
            l1->setFaultInjector(faults_.get());
        for (VipsLlcBank* bank : vipsBanks_)
            bank->setFaultInjector(faults_.get());
    }

    if (dbg.trackMessagesEffective()) {
        nocTracker_ = std::make_unique<NocTracker>();
        mesh_.setDebug(nocTracker_.get(), faults_.get());
    }

    if (dbg.checkInvariants) {
        InvariantChecker::Sources src;
        for (const auto& core : cores_)
            src.cores.push_back(core.get());
        src.mesiL1s = {mesiL1s_.begin(), mesiL1s_.end()};
        src.mesiBanks = {mesiBanks_.begin(), mesiBanks_.end()};
        src.vipsL1s = {vipsL1s_.begin(), vipsL1s_.end()};
        src.vipsBanks = {vipsBanks_.begin(), vipsBanks_.end()};
        if (cfg_.protocol == ProtocolKind::Vips)
            src.classifier = &classifier_;
        src.noc = nocTracker_.get();
        checker_ = std::make_unique<InvariantChecker>(std::move(src));
    }

    if (dbg.wantsPolling()) {
        Watchdog::Hooks hooks;
        hooks.progressCounter = [this] {
            std::uint64_t sum = 0;
            for (const auto& core : cores_)
                sum += core->instructionsRetired();
            return sum;
        };
        if (checker_ != nullptr) {
            hooks.checkInvariants = [this] {
                InvariantChecker::enforce("interval",
                                          checker_->checkInterval());
            };
        }
        watchdog_ = std::make_unique<Watchdog>(eq_, dbg, std::move(hooks));
        watchdog_->install();
    }
}

Chip::~Chip() = default;

void
Chip::setProgram(CoreId core, Program program)
{
    // Merge the thread's data symbols chip-wide; emitters register the
    // same handle names on every thread, so first binding wins.
    for (const auto& [addr, name] : program.symbols())
        symbols_.emplace(addr, name);
    cores_.at(core)->setProgram(std::move(program));
}

RunResult
Chip::run()
{
    CBSIM_ASSERT(!ran_, "Chip::run called twice");
    ran_ = true;
    // Time only the event-loop window: this is the kernel-throughput
    // number bench_perf_kernel compares across kernel versions, so it
    // must exclude construction, program loading, and stats extraction
    // (identical work on both sides of any comparison).
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& core : cores_)
        core->start();
    try {
        eq_.run(cfg_.maxTicks);
    } catch (const std::exception& e) {
        // Tick-budget exhaustion, watchdog trips, and invariant panics
        // all surface here; attach the machine state before rethrowing.
        dumpForensics(e.what());
        throw;
    }
    const double sim_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (finishedCores() != cfg_.numCores) {
        dumpForensics("quiesce failure: event queue drained with "
                      "unfinished cores");
        fatal("deadlock: only ", finishedCores(), " of ", cfg_.numCores,
              " cores finished");
    }
    if (checker_ != nullptr) {
        const auto violations = checker_->checkQuiesce();
        if (!violations.empty()) {
            dumpForensics("quiesce invariant violations");
            InvariantChecker::enforce("quiesce", violations);
        }
    }
    // Execution time is the last core's completion; the queue may drain
    // later due to harmless residual events (e.g., spin-watch timeouts).
    Tick end = 0;
    for (const auto& core : cores_)
        end = std::max(end, core->doneTick());
    RunResult result = RunResult::fromStats(stats_, syncStats_, end);
    result.events = eq_.executedEvents();
    result.simWallMs = sim_wall_ms;
    if (epochSampler_ != nullptr)
        result.epochs = epochSampler_->rows();
    if (!attrShards_.empty()) {
        std::vector<const AttributionTable*> shards;
        shards.reserve(attrShards_.size());
        for (const auto& s : attrShards_)
            shards.push_back(s.get());
        result.contention =
            buildContention(shards, symbols_, RunResult::kContentionTopN);
    }
    if (causal_ != nullptr)
        result.causal = causal_->rows();
    if (trace_ != nullptr)
        trace_->writeFile(cfg_.debug.obs.traceDir, cfg_.debug.label);
    return result;
}

std::vector<std::string>
Chip::checkInvariantsNow() const
{
    if (checker_ == nullptr)
        return {};
    return checker_->checkQuiesce();
}

std::string
Chip::dumpForensics(const std::string& reason)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", forensics::kSchema);
        w.field("reason", reason);
        w.field("label", cfg_.debug.label);
        w.field("protocol",
                cfg_.protocol == ProtocolKind::Mesi ? "mesi" : "vips");
        w.field("num_cores", cfg_.numCores);
        w.field("finished_cores", finishedCores());
        const EventQueue::DebugSnapshot snap = eq_.debugSnapshot();
        w.field("now", snap.now);

        w.key("event_queue");
        w.beginObject();
        w.field("executed", snap.executed);
        w.field("pending", static_cast<std::uint64_t>(snap.pending));
        w.field("far_pending",
                static_cast<std::uint64_t>(snap.farPending));
        w.field("far_min", snap.farMin);
        w.key("head_window");
        w.beginArray();
        for (const auto& [when, count] : snap.headWindow) {
            w.beginObject();
            w.field("tick", when);
            w.field("events", static_cast<std::uint64_t>(count));
            w.endObject();
        }
        w.endArray();
        w.endObject();

        w.key("cores");
        w.beginArray();
        for (const auto& core : cores_)
            core->dumpDebug(w);
        w.endArray();

        w.key("l1s");
        w.beginArray();
        for (const auto& l1 : l1s_)
            l1->dumpDebug(w);
        w.endArray();

        w.key("banks");
        w.beginArray();
        for (const auto& bank : banks_)
            bank->dumpDebug(w);
        w.endArray();

        w.key("noc_in_flight");
        if (nocTracker_ != nullptr) {
            w.beginArray();
            nocTracker_->forEachInFlight(
                [&w](const Message& m, NodeId at, Tick injected) {
                    w.beginObject();
                    w.field("message", m.toString());
                    w.field("at_node", static_cast<unsigned>(at));
                    w.field("injected_at", injected);
                    w.endObject();
                });
            w.endArray();
        } else {
            w.null();
        }

        if (checker_ != nullptr) {
            // Best effort: the dump may itself be reporting a violation.
            w.key("invariant_violations");
            w.beginArray();
            for (const std::string& v : checker_->checkQuiesce())
                w.value(v);
            w.endArray();
        }
        w.endObject();
    }
    return forensics::emitReport(cfg_.debug, os.str());
}

const CallbackDirectory&
Chip::callbackDirectory(BankId i) const
{
    const auto* bank = dynamic_cast<const VipsLlcBank*>(banks_.at(i).get());
    if (!bank)
        fatal("callbackDirectory: not a VIPS chip");
    return bank->directory();
}

} // namespace cbsim
