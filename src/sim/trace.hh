/**
 * @file
 * Runtime-filtered protocol tracing.
 *
 * Debugging coherence protocols is all about seeing the interleaving of
 * events on one line; this tracer makes the ad-hoc printf sessions of
 * protocol bring-up a first-class tool. Categories can be enabled per
 * subsystem and the stream can be restricted to a single cache line;
 * when disabled (the default) a trace point costs one branch.
 *
 * Enable programmatically or via the environment:
 *   CBSIM_TRACE=l1,llc CBSIM_TRACE_ADDR=0x40000ec0 ./bench_fig21_apps
 */

#ifndef CBSIM_SIM_TRACE_HH
#define CBSIM_SIM_TRACE_HH

#include <array>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>

#include "mem/addr.hh"
#include "sim/types.hh"

namespace cbsim {

/** Trace categories, one per subsystem. */
enum class TraceCategory : std::uint8_t
{
    Core,  ///< instruction issue / memory completion
    L1,    ///< private-cache controllers (MESI + VIPS)
    Llc,   ///< LLC banks / directory transactions
    CbDir, ///< callback-directory state changes
    Noc,   ///< message injection/delivery
    NumCategories
};

const char* traceCategoryName(TraceCategory c);

/**
 * Global tracer singleton. emit() serializes under a mutex so trace
 * points stay safe when sweep workers (--jobs) run chips concurrently;
 * the disabled path is still a single branch.
 */
class Tracer
{
  public:
    static Tracer& instance();

    /**
     * Disabled-path fast check: one load of an inline bitmask and a
     * test, no function call. CBSIM_TRACE consults this before touching
     * the singleton, so trace points really do cost one branch when off.
     */
    static bool
    categoryOn(TraceCategory c)
    {
        return (activeMask & (1u << static_cast<unsigned>(c))) != 0;
    }

    /** Apply CBSIM_TRACE / CBSIM_TRACE_ADDR from the environment. */
    void configureFromEnvironment();

    void enable(TraceCategory c, bool on = true);
    void enableAll(bool on = true);

    /** Restrict output to events whose line matches (0 = no filter). */
    void setLineFilter(Addr line_addr);

    /** Redirect output (default: std::cerr); nullptr silences. */
    void setSink(std::ostream* sink);

    bool
    on(TraceCategory c) const
    {
        return enabled_[static_cast<std::size_t>(c)];
    }

    bool
    lineMatches(Addr addr) const
    {
        return lineFilter_ == 0 ||
               AddrLayout::lineAlign(addr) == lineFilter_;
    }

    void emit(TraceCategory c, Tick now, const std::string& text);

    std::uint64_t eventsEmitted() const { return emitted_; }

    /** Reset to the all-off default (tests). */
    void reset();

  private:
    Tracer() = default;

    /** Recompute activeMask from enabled_ after any change. */
    void syncMask();

    static_assert(static_cast<std::size_t>(TraceCategory::NumCategories) <=
                      8,
                  "activeMask is 8 bits");

    /** Bit per category, mirrored from enabled_ by enable()/reset(). */
    static inline std::uint8_t activeMask = 0;

    std::array<bool,
               static_cast<std::size_t>(TraceCategory::NumCategories)>
        enabled_{};
    Addr lineFilter_ = 0;
    std::ostream* sink_ = nullptr;
    std::uint64_t emitted_ = 0;
    std::mutex emitMutex_; ///< serializes emit() across sweep workers
};

/**
 * Trace-point macro: evaluates the streamed expression only when the
 * category is enabled and the address passes the line filter.
 */
#define CBSIM_TRACE(category, now, addr, expr)                             \
    do {                                                                   \
        if (::cbsim::Tracer::categoryOn(category)) {                       \
            auto& tracer_ = ::cbsim::Tracer::instance();                   \
            if (tracer_.lineMatches(addr)) {                               \
                std::ostringstream trace_os_;                              \
                trace_os_ << expr;                                         \
                tracer_.emit(category, now, trace_os_.str());              \
            }                                                              \
        }                                                                  \
    } while (0)

} // namespace cbsim

#endif // CBSIM_SIM_TRACE_HH
