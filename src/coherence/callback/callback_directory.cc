#include "coherence/callback/callback_directory.hh"

#include "sim/log.hh"

namespace cbsim {

CallbackDirectory::CallbackDirectory(unsigned num_entries,
                                     unsigned num_cores)
    : entries_(num_entries), numCores_(num_cores)
{
    if (num_entries == 0)
        fatal("callback directory needs at least one entry");
    if (num_cores == 0 || num_cores > 64)
        fatal("callback directory supports 1..64 cores, got ", num_cores);
}

std::uint64_t
CallbackDirectory::allMask() const
{
    return numCores_ == 64 ? ~0ULL : ((1ULL << numCores_) - 1);
}

CallbackDirectory::Entry*
CallbackDirectory::find(Addr word)
{
    const Addr w = AddrLayout::wordAlign(word);
    for (auto& e : entries_) {
        if (e.valid && e.word == w)
            return &e;
    }
    return nullptr;
}

const CallbackDirectory::Entry*
CallbackDirectory::find(Addr word) const
{
    return const_cast<CallbackDirectory*>(this)->find(word);
}

CallbackDirectory::Entry&
CallbackDirectory::ensure(Addr word, CbReadResult& res)
{
    const Addr w = AddrLayout::wordAlign(word);
    if (Entry* e = find(w))
        return *e;

    // Pick an invalid entry, else the LRU victim.
    Entry* victim = nullptr;
    for (auto& e : entries_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (!victim || e.lru < victim->lru)
            victim = &e;
    }
    if (victim->valid) {
        // Replacement: satisfy all waiters with the current value; the
        // bits are lost (Fig. 3 step 5). The caller performs the wakes.
        evictions_.inc();
        res.evictionHappened = true;
        res.evictedWord = victim->word;
        for (CoreId c = 0; c < numCores_; ++c) {
            if (victim->cb & (1ULL << c))
                res.evictedWaiters.push_back(c);
        }
    }
    victim->valid = true;
    victim->word = w;
    victim->cb = 0;
    victim->fe = allMask(); // fresh entries start all-full (Fig. 3 step 6)
    victim->aoOne = false;
    touch(*victim);
    return *victim;
}

CbReadResult
CallbackDirectory::ldCb(Addr addr, CoreId core)
{
    CBSIM_ASSERT(core < numCores_, "ldCb: core out of range");
    CbReadResult res;
    Entry& e = ensure(addr, res);
    touch(e);
    const std::uint64_t bit = 1ULL << core;

    if (e.aoOne) {
        // One mode: all F/E bits act in unison (all-full or all-empty).
        if (e.fe != 0) {
            e.fe = 0; // this read consumes the single value for everyone
            return res;
        }
    } else {
        if (e.fe & bit) {
            e.fe &= ~bit; // consume this core's full bit
            return res;
        }
    }
    // Empty: set the callback and block awaiting the next write.
    e.cb |= bit;
    res.blocked = true;
    return res;
}

void
CallbackDirectory::ldThrough(Addr addr, CoreId core)
{
    CBSIM_ASSERT(core < numCores_, "ldThrough: core out of range");
    Entry* e = find(addr);
    if (!e)
        return; // never allocates
    touch(*e);
    if (e->aoOne) {
        if (e->fe != 0)
            e->fe = 0;
    } else {
        e->fe &= ~(1ULL << core);
    }
    // Never blocks: the caller returns the current value regardless.
}

CbWriteResult
CallbackDirectory::store(Addr addr, CoreId writer, WakePolicy policy)
{
    CbWriteResult res;
    Entry* e = find(addr);
    if (!e)
        return res; // writes never allocate entries

    touch(*e);
    switch (policy) {
      case WakePolicy::All:
        // st_through / st_cbA: wake every waiter; F/E bits of the cores
        // that did NOT have a callback become full (Fig. 3 step 3); the
        // entry reverts to All mode.
        for (CoreId c = 0; c < numCores_; ++c) {
            if (e->cb & (1ULL << c))
                res.wake.push_back(c);
        }
        e->fe = allMask() & ~e->cb;
        e->cb = 0;
        e->aoOne = false;
        break;

      case WakePolicy::One: {
        // st_cb1: switch to One mode; wake exactly one waiter chosen by
        // the pseudo-random round-robin policy (scan upward from the
        // writer, wrapping); F/E bits stay empty if someone was woken
        // (Fig. 4 step 9), else become all-full in unison.
        e->aoOne = true;
        if (e->cb != 0) {
            CoreId pick = invalidCore;
            for (unsigned i = 1; i <= numCores_; ++i) {
                const CoreId c = (writer + i) % numCores_;
                if (e->cb & (1ULL << c)) {
                    pick = c;
                    break;
                }
            }
            CBSIM_ASSERT(pick != invalidCore, "cb mask inconsistent");
            e->cb &= ~(1ULL << pick);
            e->fe = 0; // undisturbed: the woken read consumed the value
            res.wake.push_back(pick);
        } else {
            e->fe = allMask(); // value available for the next reader
        }
        break;
      }

      case WakePolicy::Zero:
        // st_cb0: the write of a successful RMW; wake nobody, leave the
        // F/E bits undisturbed, stay/become One mode (lock idiom).
        e->aoOne = true;
        break;

      case WakePolicy::None:
        // DRF store: never reaches the callback directory.
        panic("WakePolicy::None presented to callback directory");
    }
    return res;
}

bool
CallbackDirectory::hasCallback(Addr addr, CoreId core) const
{
    const Entry* e = find(addr);
    return e && (e->cb & (1ULL << core));
}

std::optional<CallbackDirectory::EntrySnapshot>
CallbackDirectory::snapshot(Addr addr) const
{
    const Entry* e = find(addr);
    if (!e)
        return std::nullopt;
    return EntrySnapshot{e->cb, e->fe, e->aoOne};
}

std::vector<CallbackDirectory::EntryState>
CallbackDirectory::entryStates() const
{
    std::vector<EntryState> out;
    for (const auto& e : entries_) {
        if (e.valid)
            out.push_back(EntryState{e.word, e.cb, e.fe, e.aoOne});
    }
    return out;
}

CbReadResult
CallbackDirectory::forceEvictOne()
{
    CbReadResult res;
    // Prefer a live-waiter entry (the interesting recovery path); fall
    // back to any valid entry so storms still churn idle directories.
    Entry* victim = nullptr;
    for (auto& e : entries_) {
        if (!e.valid)
            continue;
        if (e.cb != 0) {
            victim = &e;
            break;
        }
        if (victim == nullptr)
            victim = &e;
    }
    if (victim == nullptr)
        return res;

    evictions_.inc();
    res.evictionHappened = true;
    res.evictedWord = victim->word;
    for (CoreId c = 0; c < numCores_; ++c) {
        if (victim->cb & (1ULL << c))
            res.evictedWaiters.push_back(c);
    }
    victim->valid = false;
    victim->cb = 0;
    victim->fe = 0;
    victim->aoOne = false;
    return res;
}

unsigned
CallbackDirectory::validEntries() const
{
    unsigned n = 0;
    for (const auto& e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace cbsim
