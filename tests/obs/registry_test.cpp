/**
 * @file
 * StatsRegistry tests: hierarchical scoped registration, qualified
 * names, and duplicate detection through scopes.
 */

#include <gtest/gtest.h>

#include "stats/stats.hh"
#include "sim/log.hh"

namespace cbsim {
namespace {

TEST(StatsRegistry, ScopedRegistrationQualifiesNames)
{
    StatsRegistry reg;
    Counter c;
    Histogram h;
    const StatsScope llc3 = reg.scope("llc.3");
    llc3.add("accesses", c);
    llc3.add("latency", h);
    c.inc(5);
    h.sample(12);
    EXPECT_EQ(reg.counter("llc.3.accesses"), 5u);
    EXPECT_EQ(reg.histogram("llc.3.latency").count(), 1u);
}

TEST(StatsRegistry, NestedScopesComposePrefixes)
{
    StatsRegistry reg;
    Counter c;
    const StatsScope bank = reg.scope("llc.0");
    const StatsScope cbdir = bank.scope("cbdir");
    EXPECT_EQ(cbdir.prefix(), "llc.0.cbdir.");
    EXPECT_EQ(cbdir.qualify("evictions"), "llc.0.cbdir.evictions");
    cbdir.add("evictions", c);
    c.inc();
    EXPECT_EQ(reg.counter("llc.0.cbdir.evictions"), 1u);
}

TEST(StatsRegistry, RootScopeRegistersVerbatim)
{
    StatsRegistry reg;
    Counter c;
    reg.root().add("noc.packets", c);
    EXPECT_TRUE(reg.hasCounter("noc.packets"));
}

TEST(StatsRegistry, DuplicateThroughDifferentScopesPanics)
{
    // Two components accidentally landing on the same qualified name
    // must fail loudly, exactly like flat registration.
    StatsRegistry reg;
    Counter a, b;
    reg.scope("core.0").add("instructions", a);
    EXPECT_THROW(reg.scope("core.0").add("instructions", b), PanicError);
}

} // namespace
} // namespace cbsim
