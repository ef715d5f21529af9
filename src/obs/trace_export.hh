/**
 * @file
 * Chrome trace-event / Perfetto exporter (docs/OBSERVABILITY.md).
 *
 * Renders one run as a `.trace.json` in the Chrome trace-event JSON
 * format, loadable in ui.perfetto.dev or chrome://tracing:
 *
 *  - process "cores": one track per core, with a duration slice per
 *    completed memory stall, named by what the core was doing — "mem"
 *    (plain miss), "spin" (spin-marked retry), "cbdir-blocked"
 *    (parked on a callback read — the paper's §2.1 pausable window);
 *  - process "callback-directory": one track per LLC bank, with
 *    instants for every park ("park") and wake ("wake" /
 *    "wake-evict" when a capacity eviction forced it);
 *  - process "noc": counter tracks of per-epoch deltas (LLC accesses,
 *    flit hops, packets, blocked cores) when epoch sampling is on.
 *
 * Timestamps are simulated ticks. Events are appended from inside the
 * event loop in dispatch order. Within a configuration the export is
 * byte-identical across runs and sweep worker counts — traces diff like
 * results artifacts do.
 */

#ifndef CBSIM_OBS_TRACE_EXPORT_HH
#define CBSIM_OBS_TRACE_EXPORT_HH

#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace cbsim {

class TraceExporter
{
  public:
    static constexpr const char* kSchema = "cbsim-trace-v1";

    // Trace process ids (fixed; the UI groups tracks by process).
    static constexpr std::uint32_t pidCores = 1;
    static constexpr std::uint32_t pidCbdir = 2;
    static constexpr std::uint32_t pidNoc = 3;
    static constexpr std::uint32_t pidLines = 4;

    TraceExporter(unsigned numCores, unsigned numBanks)
        : numCores_(numCores), numBanks_(numBanks)
    {}

    /** Duration slice on core @p core's track: [start, end). */
    void
    coreSlice(CoreId core, const char* state, Tick start, Tick end)
    {
        events_.push_back(
            TraceEvent{state, 'X', pidCores,
                       static_cast<std::uint32_t>(core), start,
                       end - start, 0, nullptr});
    }

    /** A core parked in bank @p bank's callback directory. */
    void
    park(BankId bank, CoreId core, Tick ts)
    {
        events_.push_back(
            TraceEvent{"park", 'i', pidCbdir,
                       static_cast<std::uint32_t>(bank), ts, 0, core,
                       "core"});
    }

    /** A parked core woken (by a write, or evicted for capacity). */
    void
    wake(BankId bank, CoreId core, Tick ts, bool evicted)
    {
        events_.push_back(
            TraceEvent{evicted ? "wake-evict" : "wake", 'i', pidCbdir,
                       static_cast<std::uint32_t>(bank), ts, 0, core,
                       "core"});
    }

    /** Counter-track sample (per-epoch NoC/LLC activity). */
    void
    counter(const char* name, Tick ts, std::uint64_t value)
    {
        events_.push_back(
            TraceEvent{name, 'C', pidNoc, 0, ts, 0, value, "value"});
    }

    /**
     * Line names (SyncLayout::lineNames) for per-line tracks ("lock0"
     * instead of hex); must outlive the exporter. Null keeps the hex
     * fallback.
     */
    void
    setSymbols(const std::map<Addr, std::string>* symbols)
    {
        symbols_ = symbols;
    }

    /**
     * Begin a per-line async slice: core @p core parked on @p word's
     * line. Pairs with lineWake on the "contended-lines" process, one
     * slice per (line, core) park episode.
     */
    void
    linePark(Addr word, CoreId core, Tick ts)
    {
        events_.push_back(TraceEvent{lineName(word), 'b', pidLines, 0, ts,
                                     0, asyncId(word, core), nullptr});
    }

    /** End the per-line async slice opened by linePark. */
    void
    lineWake(Addr word, CoreId core, Tick ts)
    {
        events_.push_back(TraceEvent{lineName(word), 'e', pidLines, 0, ts,
                                     0, asyncId(word, core), nullptr});
    }

    /**
     * Causal flow arrow for one wake episode ('s'/'t'/'f' flow events,
     * docs/OBSERVABILITY.md §Causal tracing): starts on the releaser
     * core's track, steps through the directory bank's track, ends on
     * the waiter core's track. Emitted bank-side at the wake tick so
     * all three land back to back; the Chip only wires this when causal tracing is on, so plain traces
     * are byte-identical with the feature compiled in.
     */
    void
    wakeFlow(BankId bank, Addr word, CoreId releaser, CoreId waiter,
             Tick ts)
    {
        const std::uint64_t id = flowId(word, waiter, ts);
        events_.push_back(
            TraceEvent{"wake", 's', pidCores,
                       static_cast<std::uint32_t>(releaser), ts, 0, id,
                       nullptr});
        events_.push_back(
            TraceEvent{"wake", 't', pidCbdir,
                       static_cast<std::uint32_t>(bank), ts, 0, id,
                       nullptr});
        events_.push_back(
            TraceEvent{"wake", 'f', pidCores,
                       static_cast<std::uint32_t>(waiter), ts, 0, id,
                       nullptr});
    }

    std::size_t eventCount() const { return events_.size(); }

    /** Serialize the full trace (metadata + events) as JSON. */
    void writeJson(std::ostream& os) const;

    /**
     * Write <dir>/<label>.trace.json (label made filesystem-safe).
     * @return the path written, or "" when @p dir is "-" (in-memory
     *         mode) or the write failed (warning on stderr).
     */
    std::string writeFile(const std::string& dir,
                          const std::string& label) const;

  private:
    /**
     * One trace event. Names are string literals or interned strings at
     * every call site — storing the pointer keeps appends
     * allocation-free.
     */
    struct TraceEvent
    {
        const char* name;
        char ph; ///< 'X' duration, 'i' instant, 'C' counter
        std::uint32_t pid;
        std::uint32_t tid;
        Tick ts;
        Tick dur;           ///< 'X' only
        std::uint64_t arg;  ///< meaning per argName
        const char* argName; ///< nullptr = no args object
    };

    /**
     * Async 'b'/'e' pairs match on (name, id): one park episode per
     * (line, core) gets a distinct id so concurrent waiters on the
     * same line render as parallel slices, not nested ones.
     */
    static std::uint64_t
    asyncId(Addr word, CoreId core)
    {
        return (static_cast<std::uint64_t>(core) << 48) ^ word;
    }

    /**
     * Flow 's'/'t'/'f' triples match on (cat, id): mixing the wake tick
     * in keeps every wake episode of the same (word, waiter) pair on
     * its own arrow.
     */
    static std::uint64_t
    flowId(Addr word, CoreId waiter, Tick ts)
    {
        return asyncId(word, waiter) ^ (static_cast<std::uint64_t>(ts)
                                        << 16);
    }

    /**
     * Interned display name of @p word's line (symbol when labeled,
     * hex otherwise). Stable storage: TraceEvent keeps const char*.
     */
    const char* lineName(Addr word);

    unsigned numCores_;
    unsigned numBanks_;
    std::vector<TraceEvent> events_;
    std::deque<std::string> nameStore_;
    std::unordered_map<Addr, const char*> lineNames_;
    const std::map<Addr, std::string>* symbols_ = nullptr;
};

} // namespace cbsim

#endif // CBSIM_OBS_TRACE_EXPORT_HH
