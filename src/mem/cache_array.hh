/**
 * @file
 * Generic set-associative tag/state array with true-LRU replacement.
 *
 * Protocol controllers store their per-line state in the templated entry
 * type. The array is purely structural: it knows nothing about coherence.
 *
 * A bitmap with one bit per line, in index order, is the only record of
 * which lines are valid. Line storage is allocated raw and stays
 * uninitialised until install() writes every field of a line, so
 * building an array touches only the bitmap and the per-set MRU hints,
 * and walks over valid lines (fences, page reclassification, the
 * invariant checker, forensics) visit the set bits instead of every
 * line. Lookup, victim choice and visit order are the same as a scan
 * over all ways in index order.
 */

#ifndef CBSIM_MEM_CACHE_ARRAY_HH
#define CBSIM_MEM_CACHE_ARRAY_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "mem/addr.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace cbsim {

/** Geometry of a cache structure. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 4;
    unsigned lineBytes = AddrLayout::lineBytes;

    /**
     * Divisor applied to the line number before set selection. A bank
     * of an N-way interleaved LLC only ever sees line numbers congruent
     * to its bank id mod N; dividing by N first makes all sets usable.
     * Private caches keep the default of 1.
     */
    unsigned indexDivisor = 1;

    std::uint64_t
    numSets() const
    {
        CBSIM_ASSERT(ways > 0 && lineBytes > 0, "bad geometry");
        const std::uint64_t lines = sizeBytes / lineBytes;
        CBSIM_ASSERT(lines % ways == 0, "size not divisible by ways");
        return lines / ways;
    }
};

/**
 * Set-associative array of StateT entries, indexed by line address.
 *
 * @tparam StateT per-line protocol state; must be trivially destructible.
 */
template <typename StateT>
class CacheArray
{
    static_assert(std::is_trivially_destructible_v<StateT>,
                  "line storage is freed without running destructors");

  public:
    struct Line
    {
        Addr tag;          ///< full line address (simple, unambiguous)
        std::uint64_t lru; ///< last-touch stamp
        StateT state;
    };

    explicit CacheArray(const CacheGeometry& geom)
        : geom_(geom), sets_(geom.numSets()),
          fastIndex_(std::has_single_bit(std::uint64_t{geom.indexDivisor}) &&
                     std::has_single_bit(sets_)),
          divShift_(static_cast<unsigned>(
              std::countr_zero(std::uint64_t{geom.indexDivisor}))),
          setMask_(sets_ - 1),
          waysMask_(geom.ways >= 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << geom.ways) - 1),
          lines_(static_cast<Line*>(
              ::operator new(sets_ * geom.ways * sizeof(Line)))),
          valid_((sets_ * geom.ways + 63) / 64), mruIdx_(sets_)
    {
        CBSIM_ASSERT(geom.ways <= 64, "at most 64 ways per set");
    }

    std::uint64_t numSets() const { return sets_; }
    unsigned ways() const { return geom_.ways; }

    /** Whether @p line (an element of this array) holds a valid line. */
    bool isValid(const Line& line) const { return bit(indexOf(line)); }

    /** Look up @p addr; returns the line or nullptr. Does not touch LRU. */
    Line*
    find(Addr addr)
    {
        const Addr line_addr = AddrLayout::lineAlign(addr);
        const std::size_t set = setOf(line_addr);
        // Most-recently-hit way first: spin-wait loops probe the same
        // line back to back, so this usually resolves in one compare
        // instead of a scan over every way. Purely an access-order
        // shortcut — the returned line is the same either way. (A cold
        // hint may point into another set; the tag compare rejects it,
        // since a line address maps to exactly one set.)
        const std::size_t hint = mruIdx_[set];
        if (bit(hint) && lines_[hint].tag == line_addr)
            return &lines_[hint];
        const std::size_t base = set * geom_.ways;
        for (std::uint64_t m = validWays(base); m != 0; m &= m - 1) {
            const std::size_t i = base + std::countr_zero(m);
            if (lines_[i].tag == line_addr) {
                mruIdx_[set] = i;
                return &lines_[i];
            }
        }
        return nullptr;
    }

    const Line*
    find(Addr addr) const
    {
        return const_cast<CacheArray*>(this)->find(addr);
    }

    /** Mark @p line most recently used. */
    void touch(Line& line) { line.lru = ++stamp_; }

    /**
     * Pick the victim way in @p addr's set: the lowest invalid way if
     * any, otherwise the true-LRU valid way. Never returns nullptr.
     */
    Line*
    victim(Addr addr)
    {
        return victimIf(addr, [](const Line&) { return true; });
    }

    /**
     * Like victim(), but only lines for which @p usable returns true may
     * be displaced (invalid ways always qualify). Returns nullptr when
     * every way in the set is pinned — callers retry later.
     */
    template <typename Pred>
    Line*
    victimIf(Addr addr, Pred usable)
    {
        const std::size_t base = setOf(AddrLayout::lineAlign(addr)) *
                                 geom_.ways;
        const std::uint64_t valid = validWays(base);
        if (valid != waysMask_)
            return &lines_[base + std::countr_zero(~valid)];
        Line* lru_line = nullptr;
        for (auto i = base; i < base + geom_.ways; ++i) {
            if (!usable(lines_[i]))
                continue;
            if (!lru_line || lines_[i].lru < lru_line->lru)
                lru_line = &lines_[i];
        }
        return lru_line;
    }

    /**
     * Install @p addr into @p line (which must belong to addr's set):
     * writes every field, resetting its state and touching LRU.
     */
    void
    install(Line& line, Addr addr)
    {
        const std::size_t i = indexOf(line);
        valid_[i / 64] |= std::uint64_t{1} << (i % 64);
        ::new (static_cast<void*>(&line))
            Line{AddrLayout::lineAlign(addr), ++stamp_, StateT{}};
    }

    void
    invalidate(Line& line)
    {
        const std::size_t i = indexOf(line);
        valid_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    }

    /**
     * Apply @p fn to every valid line in ascending index order (e.g.,
     * self-invalidation sweeps). @p fn may invalidate lines; a line
     * invalidated before its turn is not visited.
     */
    template <typename Fn>
    void
    forEachValid(Fn&& fn)
    {
        walkValid(*this, fn);
    }

    /** Read-only walk over valid lines (invariant checker, forensics). */
    template <typename Fn>
    void
    forEachValid(Fn&& fn) const
    {
        walkValid(*this, fn);
    }

    /** Count of valid lines (for tests). */
    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const std::uint64_t word : valid_)
            n += static_cast<std::size_t>(std::popcount(word));
        return n;
    }

  private:
    /**
     * Set index of @p line_addr. Shift/mask when the geometry allows
     * it: set selection runs on every lookup and integer division
     * costs tens of cycles. The div/mod path stays for
     * non-power-of-two core counts (9, 25, 49 cores give indexDivisor
     * 9/25/49).
     */
    std::size_t
    setOf(Addr line_addr) const
    {
        const std::uint64_t ln = AddrLayout::lineNumber(line_addr);
        return fastIndex_ ? (ln >> divShift_) & setMask_
                          : (ln / geom_.indexDivisor) % sets_;
    }

    std::size_t
    indexOf(const Line& line) const
    {
        return static_cast<std::size_t>(&line - lines_.get());
    }

    bool
    bit(std::size_t i) const
    {
        return (valid_[i / 64] >> (i % 64)) & 1;
    }

    /** Validity bits of the set whose first line is @p base, way 0 in
     *  bit 0. A set may straddle two bitmap words. */
    std::uint64_t
    validWays(std::size_t base) const
    {
        const std::size_t word = base / 64;
        const unsigned off = base % 64;
        std::uint64_t bits = valid_[word] >> off;
        if (off + geom_.ways > 64)
            bits |= valid_[word + 1] << (64 - off);
        return bits & waysMask_;
    }

    /** forEachValid for both constnesses. The live bitmap word is
     *  re-read after each call, so lines @p fn invalidates are skipped
     *  and none after the current one is missed. */
    template <typename Self, typename Fn>
    static void
    walkValid(Self& self, Fn& fn)
    {
        using Elem = std::conditional_t<std::is_const_v<Self>, const Line,
                                        Line>;
        for (std::size_t w = 0; w < self.valid_.size(); ++w) {
            for (std::uint64_t bits = self.valid_[w]; bits != 0;) {
                const unsigned b = std::countr_zero(bits);
                Elem& line = self.lines_[w * 64 + b];
                fn(line);
                bits = self.valid_[w] & (~std::uint64_t{1} << b);
            }
        }
    }

    /** Frees line storage from ::operator new; lines need no
     *  destructor (StateT is trivially destructible). */
    struct FreeLines
    {
        void operator()(Line* p) const noexcept { ::operator delete(p); }
    };

    CacheGeometry geom_;
    std::uint64_t sets_;
    bool fastIndex_;        ///< divisor and set count are powers of two
    unsigned divShift_;     ///< log2(indexDivisor), fastIndex_ only
    std::uint64_t setMask_; ///< sets_ - 1, fastIndex_ only
    std::uint64_t waysMask_; ///< one bit per way of a set
    /** Raw line storage: a line's bytes are written first by install(). */
    std::unique_ptr<Line[], FreeLines> lines_;
    /** One bit per line in index order; the only record of validity. */
    std::vector<std::uint64_t> valid_;
    /** Per-set index (into lines_) of the most recently hit way. */
    std::vector<std::size_t> mruIdx_;
    std::uint64_t stamp_ = 0;
};

} // namespace cbsim

#endif // CBSIM_MEM_CACHE_ARRAY_HH
