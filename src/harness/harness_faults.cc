#include "harness/harness_faults.hh"

#include <charconv>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <system_error>

#include "sim/log.hh"

namespace cbsim {

// One name per line so scripts/check_docs.sh can extract the list and
// require each site to be documented in docs/ROBUSTNESS.md.
const std::vector<std::string> kHarnessFaultSites = {
    "kill-child",
    "journal-eio",
    "sweep-kill",
    "transient-once",
};

namespace {

/** Split @p spec on commas, trimming nothing (sites contain no spaces). */
std::vector<std::string>
splitSpec(const std::string& spec)
{
    std::vector<std::string> parts;
    std::string::size_type start = 0;
    while (start <= spec.size()) {
        const auto comma = spec.find(',', start);
        const auto end = comma == std::string::npos ? spec.size() : comma;
        if (end > start)
            parts.push_back(spec.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return parts;
}

bool
parseCount(const std::string& s, unsigned& out)
{
    const char* end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && stop == end && out != 0;
}

} // namespace

HarnessFaultPlan
HarnessFaultPlan::parse(const std::string& spec, std::string& error)
{
    HarnessFaultPlan plan;
    error.clear();
    for (const std::string& part : splitSpec(spec)) {
        const auto at = part.find('@');
        const std::string site = part.substr(0, at);
        unsigned n = 0;
        const bool counted = at != std::string::npos;
        if (counted &&
            !parseCount(part.substr(at + 1), n)) {
            error = "harness fault site '" + part +
                    "': '@' must be followed by a positive count";
            return HarnessFaultPlan();
        }
        if (site == "kill-child" && counted) {
            plan.killChildAt = n;
        } else if (site == "journal-eio" && counted) {
            plan.journalEioAt = n;
        } else if (site == "sweep-kill" && counted) {
            plan.sweepKillAt = n;
        } else if (site == "transient-once" && !counted) {
            plan.transientOnce = true;
        } else {
            error = "unknown harness fault site '" + part +
                    "' (see docs/ROBUSTNESS.md §Harness chaos mode)";
            return HarnessFaultPlan();
        }
    }
    return plan;
}

namespace {

std::unique_ptr<HarnessFaultInjector>&
injectorSlot()
{
    static std::unique_ptr<HarnessFaultInjector> injector;
    return injector;
}

std::once_flag&
injectorInitOnce()
{
    static std::once_flag once;
    return once;
}

} // namespace

HarnessFaultInjector*
harnessFaults()
{
    // call_once, not a plain bool: sweep workers (--jobs N) hit this
    // concurrently, and the slot write must happen-before every read.
    std::call_once(injectorInitOnce(), [] {
        const char* spec = std::getenv("CBSIM_HARNESS_FAULTS");
        if (spec != nullptr && spec[0] != '\0') {
            std::string error;
            const HarnessFaultPlan plan =
                HarnessFaultPlan::parse(spec, error);
            if (!error.empty())
                fatal("CBSIM_HARNESS_FAULTS: ", error);
            if (plan.enabled())
                injectorSlot() =
                    std::make_unique<HarnessFaultInjector>(plan);
        }
    });
    return injectorSlot().get();
}

void
setHarnessFaultsForTest(std::unique_ptr<HarnessFaultInjector> injector)
{
    // Claim initialization so harnessFaults() never re-reads the
    // environment over a test-installed injector.
    std::call_once(injectorInitOnce(), [] {});
    injectorSlot() = std::move(injector);
}

} // namespace cbsim
