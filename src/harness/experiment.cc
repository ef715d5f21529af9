#include "harness/experiment.hh"

#include "sim/log.hh"
#include "sim/rng.hh"

namespace cbsim {

namespace {

/** Load @p w's initial memory, line names and programs onto @p chip. */
void
loadWorkload(Chip& chip, const WorkloadBuild& w)
{
    w.layout.apply(chip.dataStore());
    chip.setLineNames(w.layout.lineNames());
    for (CoreId t = 0; t < w.programs.size(); ++t)
        chip.setProgram(t, w.programs[t]);
}

} // namespace

ExperimentResult
finishExperiment(Chip& chip, const WorkloadBuild& w, bool check_guards)
{
    ExperimentResult res;
    res.run = chip.run();

    if (check_guards) {
        for (std::size_t l = 0; l < w.guardWords.size(); ++l) {
            const Word actual = chip.dataStore().read(w.guardWords[l]);
            if (actual != w.expectedGuardCounts[l]) {
                fatal("mutual-exclusion violation on lock ", l,
                      ": guard=", actual,
                      " expected=", w.expectedGuardCounts[l]);
            }
        }
    }
    res.energy = computeEnergy(res.run);
    return res;
}

ExperimentResult
runExperiment(const Profile& profile, Technique technique, unsigned cores,
              SyncChoice choice, unsigned cb_entries_per_bank)
{
    ChipConfig cfg = ChipConfig::forTechnique(technique, cores);
    cfg.cbEntriesPerBank = cb_entries_per_bank;
    const SyncFlavor flavor = syncFlavorFor(technique);

    WorkloadBuild w =
        buildWorkload(profile, cores, flavor, choice.lock, choice.barrier);

    Chip chip(cfg);
    loadWorkload(chip, w);

    const bool check = profile.lockedSharedData &&
                       profile.lockAcqPerPhase > 0;
    return finishExperiment(chip, w, check);
}

const char*
syncMicroName(SyncMicro m)
{
    switch (m) {
      case SyncMicro::TtasLock: return "T&T&S";
      case SyncMicro::ClhLock: return "CLH";
      case SyncMicro::SrBarrier: return "SR-barrier";
      case SyncMicro::TreeBarrier: return "TreeSR-barrier";
      case SyncMicro::SignalWait: return "signal/wait";
      default: return "?";
    }
}

ExperimentResult
runSyncMicro(SyncMicro micro, Technique technique, unsigned cores,
             unsigned iterations, std::uint64_t work_between,
             unsigned cb_entries_per_bank)
{
    ChipConfig cfg = ChipConfig::forTechnique(technique, cores);
    cfg.cbEntriesPerBank = cb_entries_per_bank;
    const SyncFlavor flavor = syncFlavorFor(technique);

    WorkloadBuild w;
    auto& layout = w.layout;

    const bool is_lock =
        micro == SyncMicro::TtasLock || micro == SyncMicro::ClhLock;

    if (is_lock) {
        const LockAlgo algo = micro == SyncMicro::TtasLock
                                  ? LockAlgo::TestAndTestAndSet
                                  : LockAlgo::Clh;
        w.locks.push_back(makeLock(layout, algo, cores));
        const Addr guard = layout.allocLine();
        layout.init(guard, 0);
        w.guardWords.push_back(guard);
        w.expectedGuardCounts.push_back(
            static_cast<std::uint64_t>(cores) * iterations);
    } else if (micro == SyncMicro::SrBarrier) {
        // Fig. 20 pairing: the SR barrier uses the T&T&S counter lock.
        w.barrier =
            makeSrBarrier(layout, cores, LockAlgo::TestAndTestAndSet);
    } else if (micro == SyncMicro::TreeBarrier) {
        w.barrier = makeTreeBarrier(layout, cores);
    } else {
        // Signal/wait pairs: even cores signal, odd cores wait.
        for (unsigned p = 0; p < (cores + 1) / 2; ++p)
            w.signals.push_back(makeSignal(layout));
    }

    for (CoreId t = 0; t < cores; ++t) {
        Rng rng(0xABCDEFULL ^ (t * 0x9e3779b97f4a7c15ULL));
        Assembler a;
        a.workImm(rng.below(64));
        for (unsigned i = 0; i < iterations; ++i) {
            // Signal/wait: the producer is the slow side, so the wait
            // side genuinely spin-waits (the case the paper optimizes).
            const std::uint64_t work =
                micro == SyncMicro::SignalWait && t % 2 == 0
                    ? work_between * 6
                    : work_between;
            a.workImm(rng.jitter(std::max<std::uint64_t>(1, work), 0.5));
            if (is_lock) {
                emitAcquire(a, w.locks[0], flavor, t);
                a.workImm(50);
                a.movImm(0, w.guardWords[0]);
                a.ld(1, 0);
                a.addImm(1, 1, 1);
                a.st(1, 0);
                emitRelease(a, w.locks[0], flavor, t);
            } else if (micro == SyncMicro::SrBarrier ||
                       micro == SyncMicro::TreeBarrier) {
                emitBarrier(a, w.barrier, flavor, t);
            } else {
                const unsigned pair = t / 2;
                if (t % 2 == 0)
                    emitSignal(a, w.signals[pair], flavor);
                else
                    emitWait(a, w.signals[pair], flavor);
            }
        }
        a.done();
        w.programs.push_back(a.assemble());
    }

    Chip chip(cfg);
    loadWorkload(chip, w);
    return finishExperiment(chip, w, is_lock);
}

} // namespace cbsim
