/**
 * @file
 * First-touch private/shared page classification (VIPS-M's OS-based
 * mechanism, implemented in-simulator; see DESIGN.md substitutions).
 *
 * Pages start Private to their first accessor; a second distinct accessor
 * permanently promotes the page to Shared and the previous owner is
 * notified so it can flush/invalidate its cached lines of that page.
 * Private pages are excluded from self-invalidation.
 */

#ifndef CBSIM_COHERENCE_VIPS_PAGE_CLASSIFIER_HH
#define CBSIM_COHERENCE_VIPS_PAGE_CLASSIFIER_HH

#include <functional>
#include <unordered_map>

#include "mem/addr.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace cbsim {

/** Classification result for a page access. */
enum class PageClass : std::uint8_t
{
    Private,
    Shared,
};

/** Chip-wide page table for private/shared classification. */
class PageClassifier
{
  public:
    /**
     * Callback invoked on a Private(owner) -> Shared transition so the
     * previous owner's L1 can flush and invalidate the page's lines.
     */
    using TransitionHook = std::function<void(CoreId prev_owner, Addr page)>;

    explicit PageClassifier(TransitionHook hook = {});

    void setTransitionHook(TransitionHook hook) { hook_ = std::move(hook); }

    /** Classify an access by @p core to @p addr, updating the table. */
    PageClass classify(Addr addr, CoreId core);

    /** Current class without updating (unknown pages read as Private). */
    PageClass peek(Addr addr) const;

    /**
     * Owner of @p addr's page if it is classified Private to a core;
     * invalidCore for Shared or never-touched pages. The invariant
     * checker uses this to assert no L1 caches a private-marked line
     * of a page owned by someone else.
     */
    CoreId
    privateOwner(Addr addr) const
    {
        const auto it = pages_.find(AddrLayout::pageNumber(addr));
        if (it == pages_.end() || it->second.shared)
            return invalidCore;
        return it->second.owner;
    }

    /** Pages first touched so far (each starts Private). */
    std::uint64_t privatePages() const { return privatePages_.value(); }
    /** Private -> Shared promotions so far. */
    std::uint64_t transitions() const { return transitions_.value(); }

  private:
    struct PageInfo
    {
        bool shared = false;
        CoreId owner = invalidCore;
    };

    TransitionHook hook_;
    std::unordered_map<Addr, PageInfo> pages_;
    Counter privatePages_;
    Counter transitions_;
};

} // namespace cbsim

#endif // CBSIM_COHERENCE_VIPS_PAGE_CLASSIFIER_HH
