#include "sync/layout.hh"

#include "mem/data_store.hh"

namespace cbsim {

Addr
SyncLayout::allocLine()
{
    next_ = (next_ + AddrLayout::lineBytes - 1) &
            ~Addr(AddrLayout::lineBytes - 1);
    const Addr a = next_;
    next_ += AddrLayout::lineBytes;
    return a;
}

Addr
SyncLayout::allocLines(unsigned lines)
{
    const Addr a = allocLine();
    next_ = a + static_cast<Addr>(lines) * AddrLayout::lineBytes;
    return a;
}

Addr
SyncLayout::allocPage()
{
    const Addr a = nextPage_;
    nextPage_ += AddrLayout::pageBytes;
    return a;
}

Addr
SyncLayout::allocPrivateLine(CoreId tid)
{
    if (privates_.size() <= tid)
        privates_.resize(tid + 1);
    auto& region = privates_[tid];
    if (region.next + AddrLayout::lineBytes > region.end) {
        region.next = allocPage();
        region.end = region.next + AddrLayout::pageBytes;
    }
    const Addr a = region.next;
    region.next += AddrLayout::lineBytes;
    return a;
}

std::string
SyncLayout::autoName(const std::string& stem)
{
    return stem + std::to_string(nameCounts_[stem]++);
}

void
SyncLayout::nameLine(Addr addr, std::string name)
{
    names_.try_emplace(addr, std::move(name));
}

void
SyncLayout::init(Addr addr, Word value)
{
    inits_.emplace_back(addr, value);
}

void
SyncLayout::apply(DataStore& store) const
{
    for (const auto& [addr, value] : inits_)
        store.write(addr, value);
}

} // namespace cbsim
