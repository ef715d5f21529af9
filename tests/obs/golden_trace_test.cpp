/**
 * @file
 * Golden-trace smoke tests: one micro per technique family
 * (Invalidation / BackOff-10 / CB-One), each exported as a
 * `.trace.json` through the sweep runner. The traces must be
 * schema-valid and byte-identical across sweep worker counts and with
 * the invariant checker toggled — the determinism contract of
 * docs/RESULTS.md extended to traces (docs/OBSERVABILITY.md).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "debug/debug_config.hh"
#include "harness/sweep.hh"
#include "support/trace_schema.hh"

namespace cbsim {
namespace {

const std::map<std::string, Technique> kTraceCells = {
    {"inv", Technique::Invalidation},
    {"bo10", Technique::BackOff10},
    {"cb1", Technique::CbOne},
};

/**
 * Run the three micro cells with traces exported into a fresh
 * directory; return every trace keyed by cell name.
 * @param workers       sweep worker threads
 * @param invariants    run with the protocol invariant checker on
 */
std::map<std::string, std::string>
runTracedSweep(unsigned workers, bool invariants)
{
    // Keyed by test name too: ctest runs each case as its own
    // process, concurrently, and two cases may ask for the same sweep.
    const std::string dir =
        ::testing::TempDir() + "cbsim_golden_trace_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(workers) + (invariants ? "_inv" : "_plain");
    std::filesystem::remove_all(dir);

    // Worker threads resolve DebugConfig::current() from the process
    // defaults, so the obs settings must go there (and be restored).
    DebugConfig& defaults = DebugConfig::processDefaults();
    const DebugConfig saved = defaults;
    defaults.obs.traceDir = dir;
    defaults.checkInvariants = invariants;

    SweepRunner runner(workers);
    for (const auto& [name, tech] : kTraceCells)
        runner.add(SweepJob::forMicro(name, SyncMicro::TtasLock, tech, 4,
                                      2, 500));
    const auto outcomes = runner.run();
    defaults = saved;

    std::map<std::string, std::string> traces;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok)
            << runner.job(i).key << ": " << outcomes[i].error;
        const std::string path =
            dir + "/" + runner.job(i).key + ".trace.json";
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << "missing trace: " << path;
        std::stringstream ss;
        ss << in.rdbuf();
        traces[runner.job(i).key] = ss.str();
    }
    std::filesystem::remove_all(dir);
    return traces;
}

TEST(GoldenTrace, EveryTechniqueEmitsASchemaValidTrace)
{
    const auto traces = runTracedSweep(1, true);
    ASSERT_EQ(traces.size(), kTraceCells.size());
    for (const auto& [name, json] : traces) {
        EXPECT_GT(json.size(), 0u) << name;
        const auto errs = test::validateTrace(json);
        EXPECT_TRUE(errs.empty()) << name << ": " << errs.front();
    }
    // Only the callback technique parks cores in the directory.
    EXPECT_NE(traces.at("cb1").find("\"park\""), std::string::npos);
    EXPECT_EQ(traces.at("inv").find("\"park\""), std::string::npos);
}

TEST(GoldenTrace, ByteIdenticalAcrossWorkerCounts)
{
    const auto serial = runTracedSweep(1, true);
    const auto parallel = runTracedSweep(4, true);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto& [name, json] : serial)
        EXPECT_EQ(json, parallel.at(name)) << name;
}

TEST(GoldenTrace, ByteIdenticalUnderInvariantChecking)
{
    // The checker only observes (the mesh's packet pool and the
    // protocol state); traces must not depend on it.
    const auto checked = runTracedSweep(2, true);
    const auto unchecked = runTracedSweep(2, false);
    ASSERT_EQ(checked.size(), unchecked.size());
    for (const auto& [name, json] : checked)
        EXPECT_EQ(json, unchecked.at(name)) << name;
}

} // namespace
} // namespace cbsim
