#include "debug/watchdog.hh"

#include "sim/log.hh"

namespace cbsim {

void
Watchdog::poll()
{
    const Tick now = eq_.now();
    if (cfg_.wallTimeoutS > 0.0) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   startWall_)
                                   .count();
        if (elapsed > cfg_.wallTimeoutS) {
            throw TimeoutError(detail::format(
                "watchdog: run '", cfg_.label, "' exceeded wall-clock "
                "budget of ", cfg_.wallTimeoutS, " s (", elapsed,
                " s elapsed at tick ", now, ")"));
        }
    }

    if (cfg_.noProgressWindow != 0 && hooks_.progressCounter) {
        const std::uint64_t cur = hooks_.progressCounter();
        if (cur != lastProgress_) {
            lastProgress_ = cur;
            lastProgressTick_ = now;
        } else if (now - lastProgressTick_ > cfg_.noProgressWindow) {
            fatal("watchdog: no instructions retired for ",
                  now - lastProgressTick_, " ticks (window ",
                  cfg_.noProgressWindow, "); likely deadlock or ",
                  "livelock at tick ", now);
        }
    }

    if (hooks_.checkInvariants)
        hooks_.checkInvariants();
}

} // namespace cbsim
