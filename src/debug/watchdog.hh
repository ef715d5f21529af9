/**
 * @file
 * Liveness watchdog (docs/ROBUSTNESS.md §Watchdog).
 *
 * Rides the event queue's poll hook — it never schedules events of its
 * own, because a self-rescheduling check event would keep the queue
 * from draining and defeat quiesce detection. At each poll (every
 * DebugConfig::checkIntervalEvents executed events) it:
 *
 *  - trips on a no-progress window: noProgressWindow > 0 ticks elapsed
 *    with zero instructions retired chip-wide (FatalError — spinning
 *    hardware with a wedged workload);
 *  - trips on wall-clock timeout: wallTimeoutS exceeded (TimeoutError,
 *    the cooperative mechanism behind the sweep runner's
 *    --job-timeout-s);
 *  - runs the interval protocol invariant check (panics on violation).
 *
 * The watchdog only throws; the Chip catches anything escaping the
 * event loop, attaches the forensic dump, and rethrows — so every trip
 * reaches the user with the full machine state.
 */

#ifndef CBSIM_DEBUG_WATCHDOG_HH
#define CBSIM_DEBUG_WATCHDOG_HH

#include <chrono>
#include <cstdint>
#include <functional>

#include "debug/debug_config.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace cbsim {

class Watchdog
{
  public:
    struct Hooks
    {
        /** Chip-wide instructions-retired counter (monotonic). */
        std::function<std::uint64_t()> progressCounter;
        /** Interval invariant check; panics on violation. May be null. */
        std::function<void()> checkInvariants;
    };

    Watchdog(EventQueue& eq, const DebugConfig& cfg, Hooks hooks)
        : eq_(eq), cfg_(cfg), hooks_(std::move(hooks))
    {}

    /**
     * Arm the watchdog: installs the poll hook if the config wants any
     * polling duty, else leaves the queue untouched (zero cost).
     */
    void
    install()
    {
        if (!cfg_.wantsPolling())
            return;
        startWall_ = std::chrono::steady_clock::now();
        lastProgressTick_ = eq_.now();
        if (hooks_.progressCounter)
            lastProgress_ = hooks_.progressCounter();
        eq_.setPollHook(cfg_.checkIntervalEvents, [this] { poll(); });
    }

    /** One poll pass; public so tests can drive it directly. */
    void poll();

  private:
    EventQueue& eq_;
    DebugConfig cfg_;
    Hooks hooks_;

    std::chrono::steady_clock::time_point startWall_{};
    Tick lastProgressTick_ = 0;
    std::uint64_t lastProgress_ = 0;
};

} // namespace cbsim

#endif // CBSIM_DEBUG_WATCHDOG_HH
