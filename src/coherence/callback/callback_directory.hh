/**
 * @file
 * The callback directory: a tiny, self-contained directory cache "just
 * for spin-waiting" (the paper's primary contribution, §2).
 *
 * Each LLC bank owns one of these with a handful of fully-associative,
 * word-granular entries. An entry holds, per core, a Callback (CB) bit and
 * a Full/Empty (F/E) bit, plus an All/One (A/O) mode bit. The structure is
 * NOT backed by memory: entries are created on demand by callback reads
 * (only callback reads allocate) and evicted by satisfying all their
 * waiters with the current value, after which the bits are simply lost
 * and a fresh entry starts at the known state {F/E=all full, CB=all 0,
 * A/O=All}.
 *
 * This class is a pure state machine (no events, no network); the VIPS
 * LLC bank interprets its returned actions. This keeps the paper's
 * worked examples (Figs. 3-6) directly unit-testable.
 */

#ifndef CBSIM_COHERENCE_CALLBACK_CALLBACK_DIRECTORY_HH
#define CBSIM_COHERENCE_CALLBACK_CALLBACK_DIRECTORY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/addr.hh"
#include "noc/message.hh" // WakePolicy
#include "sim/types.hh"
#include "stats/stats.hh"

namespace cbsim {

/** Result of a callback read (ld_cb) presented to the directory. */
struct CbReadResult
{
    /** True: the read must block; its CB bit has been set. */
    bool blocked = false;
    /**
     * Waiters of an entry evicted to make room (their callbacks must be
     * satisfied with the current value of @c evictedWord).
     */
    std::vector<CoreId> evictedWaiters;
    /** Word address of the evicted entry (valid iff evictedWaiters set). */
    Addr evictedWord = 0;
    bool evictionHappened = false;
};

/** Result of a write presented to the directory. */
struct CbWriteResult
{
    /** Cores whose callbacks this write satisfies (to be woken). */
    std::vector<CoreId> wake;
};

/**
 * A bank's slice of the callback directory.
 *
 * Supports up to 64 cores (CB/F/E bit vectors are 64-bit masks).
 */
class CallbackDirectory
{
  public:
    /**
     * @param num_entries entries in this bank's slice (Table 2: 4)
     * @param num_cores   cores in the system (<= 64)
     */
    CallbackDirectory(unsigned num_entries, unsigned num_cores);

    /**
     * ld_cb from @p core to word @p addr. Allocates an entry on miss
     * (possibly evicting; the caller wakes the evicted waiters).
     * If not blocked, the read consumed the F/E state and the caller
     * responds with the LLC's current value.
     */
    CbReadResult ldCb(Addr addr, CoreId core);

    /**
     * ld_through from @p core: consumes F/E state if an entry exists but
     * never blocks and never allocates (§3.3 forward-progress guard).
     */
    void ldThrough(Addr addr, CoreId core);

    /**
     * A write with the given wake policy (All = st_through/st_cbA,
     * One = st_cb1, Zero = st_cb0). Returns the waiters to wake.
     * @param writer the writing core (round-robin scan starts above it)
     */
    CbWriteResult store(Addr addr, CoreId writer, WakePolicy policy);

    /** True if @p core currently has its CB bit set for @p addr. */
    bool hasCallback(Addr addr, CoreId core) const;

    /** Entry introspection for tests; nullopt if no entry. */
    struct EntrySnapshot
    {
        std::uint64_t cb;
        std::uint64_t fe;
        bool aoOne;
    };
    std::optional<EntrySnapshot> snapshot(Addr addr) const;

    /** Number of valid entries. */
    unsigned validEntries() const;

    /**
     * Full-state snapshot of every valid entry (word address + bits),
     * for the invariant checker and forensic dumps.
     */
    struct EntryState
    {
        Addr word;
        std::uint64_t cb;
        std::uint64_t fe;
        bool aoOne;
    };
    std::vector<EntryState> entryStates() const;

    /**
     * Fault injection (eviction storm): evict one valid entry —
     * preferring one with live waiters — exactly as a capacity
     * replacement would (paper §3 recovery path: waiters are satisfied
     * with the current value and the bits are lost). Returns the
     * evicted waiters + word via the same CbReadResult shape the caller
     * already handles; evictionHappened is false if the directory holds
     * no valid entry.
     */
    CbReadResult forceEvictOne();

    /** Entries evicted so far, by capacity or forced. */
    std::uint64_t evictions() const { return evictions_.value(); }

  private:
    struct Entry
    {
        bool valid = false;
        Addr word = 0;
        std::uint64_t cb = 0;   ///< per-core callback bits
        std::uint64_t fe = 0;   ///< per-core full/empty bits (1 = full)
        bool aoOne = false;     ///< A/O mode: false = All, true = One
        std::uint64_t lru = 0;
    };

    Entry* find(Addr word);
    const Entry* find(Addr word) const;

    /**
     * Get the entry for @p word, allocating (and possibly evicting) on
     * miss. Fills the eviction fields of @p res.
     */
    Entry& ensure(Addr word, CbReadResult& res);

    std::uint64_t allMask() const;
    void touch(Entry& e) { e.lru = ++stamp_; }

    std::vector<Entry> entries_;
    unsigned numCores_;
    std::uint64_t stamp_ = 0;

    Counter evictions_;
};

} // namespace cbsim

#endif // CBSIM_COHERENCE_CALLBACK_CALLBACK_DIRECTORY_HH
