#include "workload/program_gen.hh"

#include <algorithm>
#include <array>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace cbsim {

namespace {

/** Workload-owned registers (sync emitters own r10..r15). */
namespace wreg {
constexpr Reg addr = 0;
constexpr Reg val = 1;
} // namespace wreg

struct SharedArray
{
    Addr base = 0;
    unsigned lines = 0;
    unsigned linesPerThread = 0;
    unsigned threads = 0;

    /** A random word address inside @p owner's region. */
    Addr
    pick(Rng& rng, unsigned owner) const
    {
        const unsigned line =
            owner * linesPerThread +
            static_cast<unsigned>(rng.below(linesPerThread));
        const unsigned word = static_cast<unsigned>(
            rng.below(AddrLayout::wordsPerLine));
        return base + Addr(line) * AddrLayout::lineBytes +
               Addr(word) * AddrLayout::wordBytes;
    }
};

} // namespace

WorkloadBuild
buildWorkload(const Profile& profile, unsigned threads, SyncFlavor flavor,
              LockAlgo lock_algo, BarrierAlgo barrier_algo)
{
    CBSIM_ASSERT(threads >= 1, "need at least one thread");
    WorkloadBuild w;
    auto& layout = w.layout;

    // --- Shared structures ---------------------------------------------
    const unsigned num_locks = std::max(1u, profile.numLocks);
    w.locks.reserve(num_locks);
    w.guardWords.reserve(num_locks);
    w.expectedGuardCounts.assign(num_locks, 0);
    for (unsigned l = 0; l < num_locks; ++l) {
        w.locks.push_back(makeLock(layout, lock_algo, threads));
        const Addr guard = layout.allocLine();
        layout.init(guard, 0);
        w.guardWords.push_back(guard);
    }

    w.barrier = barrier_algo == BarrierAlgo::SenseReversing
                    ? makeSrBarrier(layout, threads, lock_algo)
                    : makeTreeBarrier(layout, threads);

    if (profile.pipeline) {
        w.signals.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            w.signals.push_back(makeSignal(layout));
    }

    SharedArray shared;
    shared.threads = threads;
    shared.linesPerThread =
        std::max(1u, profile.sharedLines / std::max(1u, threads));
    shared.lines = shared.linesPerThread * threads;
    shared.base = layout.allocLines(shared.lines);

    // Per-thread phase counters (progress check), thread-private.
    w.phaseWords.resize(threads);
    for (unsigned t = 0; t < threads; ++t) {
        w.phaseWords[t] = layout.allocPrivateLine(t);
        layout.init(w.phaseWords[t], 0);
    }

    // Per-thread private scratch lines (classified Private at runtime).
    std::vector<std::array<Addr, 4>> priv(threads);
    for (unsigned t = 0; t < threads; ++t) {
        for (auto& line : priv[t])
            line = layout.allocPrivateLine(t);
    }

    // --- Per-thread programs -------------------------------------------
    w.programs.reserve(threads);
    for (CoreId t = 0; t < threads; ++t) {
        // Structure randomness is independent of the flavour under test.
        Rng rng(profile.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
        Assembler a;

        // Desynchronize thread start-up slightly.
        a.workImm(rng.below(64));

        const unsigned chunks = std::max(1u, profile.lockAcqPerPhase);
        for (unsigned phase = 0; phase < profile.phases; ++phase) {
            for (unsigned chunk = 0; chunk < chunks; ++chunk) {
                // Compute segment.
                const std::uint64_t work = rng.jitter(
                    std::max<std::uint64_t>(1,
                                            profile.workMean / chunks),
                    profile.workImbalance);
                a.workImm(work);

                // DRF shared-data traffic: reads from the (possibly
                // rotated) producer region, writes to our own region.
                const unsigned reader_src =
                    profile.neighborSharing ? (t + phase + 1) % threads
                                            : t;
                const unsigned ops =
                    std::max(1u, profile.dataOpsPerUnit / chunks);
                for (unsigned i = 0; i < ops; ++i) {
                    if (rng.uniform() < profile.storeFraction) {
                        a.movImm(wreg::addr, shared.pick(rng, t));
                        a.stImm(rng.next() & 0xffff, wreg::addr);
                    } else {
                        a.movImm(wreg::addr,
                                 shared.pick(rng, reader_src));
                        a.ld(wreg::val, wreg::addr);
                    }
                }
                // Private traffic (exempt from self-invalidation).
                for (unsigned i = 0; i < profile.privOpsPerUnit; ++i) {
                    const Addr pa = priv[t][i % priv[t].size()] +
                                    (i % AddrLayout::wordsPerLine) *
                                        AddrLayout::wordBytes;
                    a.movImm(wreg::addr, pa);
                    if (i % 2 == 0)
                        a.ld(wreg::val, wreg::addr);
                    else
                        a.st(wreg::val, wreg::addr);
                }

                // Critical section.
                if (profile.lockAcqPerPhase > 0) {
                    const unsigned lock_id =
                        rng.uniform() < profile.hotLockFraction
                            ? 0
                            : static_cast<unsigned>(
                                  rng.below(num_locks));
                    ++w.expectedGuardCounts[lock_id];
                    emitAcquire(a, w.locks[lock_id], flavor, t);
                    a.workImm(rng.jitter(std::max<std::uint64_t>(
                                             1, profile.csWork),
                                         0.2));
                    if (profile.lockedSharedData) {
                        // Guarded counter increment: the final value is
                        // the mutual-exclusion invariant.
                        a.movImm(wreg::addr, w.guardWords[lock_id]);
                        a.ld(wreg::val, wreg::addr);
                        a.addImm(wreg::val, wreg::val, 1);
                        a.st(wreg::val, wreg::addr);
                    }
                    emitRelease(a, w.locks[lock_id], flavor, t);
                }
            }

            // Pipeline hand-off (dedup/x264-style stages).
            if (profile.pipeline) {
                if (t > 0)
                    emitWait(a, w.signals[t], flavor);
                if (t + 1 < threads)
                    emitSignal(a, w.signals[t + 1], flavor);
            }

            // Phase-progress record (private; checked by tests).
            a.movImm(wreg::addr, w.phaseWords[t]);
            a.ld(wreg::val, wreg::addr);
            a.addImm(wreg::val, wreg::val, 1);
            a.st(wreg::val, wreg::addr);

            emitBarrier(a, w.barrier, flavor, t);
        }
        a.done();
        w.programs.push_back(a.assemble());
    }
    return w;
}

} // namespace cbsim
