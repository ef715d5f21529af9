#include "coherence/vips/page_classifier.hh"

namespace cbsim {

PageClassifier::PageClassifier(TransitionHook hook) : hook_(std::move(hook))
{
}

PageClass
PageClassifier::classify(Addr addr, CoreId core)
{
    const Addr page = AddrLayout::pageNumber(addr);
    // try_emplace builds no node when the page is already known.
    auto [it, inserted] = pages_.try_emplace(page);
    PageInfo& info = it->second;
    if (inserted) {
        info.owner = core;
        privatePages_.inc();
        return PageClass::Private;
    }
    if (info.shared)
        return PageClass::Shared;
    if (info.owner == core)
        return PageClass::Private;
    // Second distinct accessor: permanent promotion to Shared.
    info.shared = true;
    transitions_.inc();
    const CoreId prev = info.owner;
    info.owner = invalidCore;
    if (hook_)
        hook_(prev, page * AddrLayout::pageBytes);
    return PageClass::Shared;
}

PageClass
PageClassifier::peek(Addr addr) const
{
    auto it = pages_.find(AddrLayout::pageNumber(addr));
    if (it == pages_.end())
        return PageClass::Private;
    return it->second.shared ? PageClass::Shared : PageClass::Private;
}

} // namespace cbsim
