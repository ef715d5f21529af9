/**
 * @file
 * Functional backing store for the simulated address space.
 *
 * The simulator separates timing (caches, protocols, network) from
 * function (values). All programs in this study are data-race-free except
 * for synchronization accesses that are serialized at the LLC, so a single
 * word-granular store that commits values in LLC/ownership order is
 * functionally exact (see DESIGN.md §3).
 *
 * Every simulated load and store lands here, so the container matters:
 * this is an open-addressing, linear-probe hash table (flat storage, no
 * per-node allocation, one cache line per probe) rather than a
 * node-based std::unordered_map. Nothing iterates the table, so its
 * layout has no determinism surface — only read/write/footprint are
 * observable, and those are container-independent.
 */

#ifndef CBSIM_MEM_DATA_STORE_HH
#define CBSIM_MEM_DATA_STORE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/types.hh"

namespace cbsim {

/** Sparse word-granular value store; unwritten words read as zero. */
class DataStore
{
  public:
    DataStore() : slots_(initialSlots) {}

    /** Read the word containing @p addr. */
    Word
    read(Addr addr) const
    {
        const Addr tag = AddrLayout::wordAlign(addr) | 1u;
        for (std::size_t i = indexOf(tag);; i = (i + 1) & mask()) {
            const Slot& s = slots_[i];
            if (s.tag == 0)
                return 0;
            if (s.tag == tag)
                return s.value;
        }
    }

    /** Write the word containing @p addr. */
    void
    write(Addr addr, Word value)
    {
        const Addr tag = AddrLayout::wordAlign(addr) | 1u;
        for (std::size_t i = indexOf(tag);; i = (i + 1) & mask()) {
            Slot& s = slots_[i];
            if (s.tag == tag) {
                s.value = value;
                return;
            }
            if (s.tag == 0) {
                s.tag = tag;
                s.value = value;
                if (++used_ * 4 > slots_.size() * 3)
                    rehash(slots_.size() * 2);
                return;
            }
        }
    }

    /** Number of distinct words ever written (for tests). */
    std::size_t footprintWords() const { return used_; }

  private:
    struct Slot
    {
        Addr tag = 0; ///< word-aligned addr | 1; 0 = empty
        Word value = 0;
    };

    static constexpr std::size_t initialSlots = 1024; // power of two

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    indexOf(Addr tag) const
    {
        // Fibonacci-style multiplicative mix; the shift folds the high
        // bits down so word-aligned keys spread across the table.
        const std::uint64_t h = tag * 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(h >> 32) & mask();
    }

    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_ = std::vector<Slot>(n);
        for (const Slot& s : old) {
            if (s.tag == 0)
                continue;
            std::size_t i = indexOf(s.tag);
            while (slots_[i].tag != 0)
                i = (i + 1) & mask();
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace cbsim

#endif // CBSIM_MEM_DATA_STORE_HH
