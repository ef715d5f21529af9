/**
 * @file
 * Quickstart: build a 16-core chip with the callback-one protocol, run
 * a T&T&S-guarded shared counter plus a TreeSR barrier, and print the
 * headline metrics.
 *
 * This is the 60-second tour of the public API:
 *   ChipConfig -> Chip -> (SyncLayout + emitters -> Program) -> run().
 */

#include <iostream>

#include "energy/energy_model.hh"
#include "sync/barriers.hh"
#include "system/chip.hh"

using namespace cbsim;

int
main()
{
    constexpr unsigned cores = 16;
    constexpr unsigned iters = 10;

    // 1. A chip configured for one of the paper's techniques.
    //    (Table 2 parameters; CB-One = callback directory + st_cb1.)
    ChipConfig cfg = ChipConfig::forTechnique(Technique::CbOne, cores);
    Chip chip(cfg);

    // 2. Allocate synchronization objects in simulated memory.
    SyncLayout layout;
    LockHandle lock =
        makeLock(layout, LockAlgo::TestAndTestAndSet, cores);
    BarrierHandle barrier = makeTreeBarrier(layout, cores);
    const Addr counter = layout.allocLine();
    layout.init(counter, 0);

    // 3. Write one mini-ISA program per core with the sync emitters.
    for (CoreId t = 0; t < cores; ++t) {
        Assembler a;
        const Label loop = a.newLabel();
        a.movImm(2, counter);
        a.movImm(5, 0);
        a.movImm(6, iters);
        a.bind(loop);
        a.workImm(200 + 37 * t); // "compute"
        emitAcquire(a, lock, SyncFlavor::CbOne, t);
        a.ld(4, 2); // critical section: counter++
        a.addImm(4, 4, 1);
        a.st(4, 2);
        emitRelease(a, lock, SyncFlavor::CbOne, t);
        a.addImm(5, 5, 1);
        a.bne(5, 6, loop);
        emitBarrier(a, barrier, SyncFlavor::CbOne, t);
        chip.setProgram(t, a.assemble());
    }
    layout.apply(chip.dataStore());
    chip.setLineNames(layout.lineNames()); // "lock0" in traces, not hex

    // 4. Run and inspect.
    RunResult r = chip.run();
    const EnergyBreakdown e = computeEnergy(r);

    std::cout << "cbsim quickstart (" << cores << " cores, CB-One)\n"
              << "  counter           = "
              << chip.dataStore().read(counter) << " (expected "
              << cores * iters << ")\n"
              << "  execution time    = " << r.cycles << " cycles\n"
              << "  LLC accesses      = " << r.llcAccesses << " ("
              << r.llcSyncAccesses << " from synchronization)\n"
              << "  network traffic   = " << r.flitHops << " flit-hops\n"
              << "  callback wake-ups = " << r.cbWakeups << "\n"
              << "  on-chip energy    = " << e.onChip() << " nJ ("
              << e.summary() << ")\n";

    const auto acq = static_cast<std::size_t>(SyncKind::Acquire);
    std::cout << "  acquire latency   = " << r.sync[acq].meanLatency
              << " cycles (mean over " << r.sync[acq].completions
              << " acquires)\n";
    return chip.dataStore().read(counter) == cores * iters ? 0 : 1;
}
