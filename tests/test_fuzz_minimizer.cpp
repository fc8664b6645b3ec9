/**
 * @file
 * xmig-forge minimizer: ddmin unit behavior on synthetic predicates,
 * and end-to-end plan reduction against the broken test oracle.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.hpp"
#include "fuzz/minimizer.hpp"

using namespace xmig;

namespace {

using Items = std::vector<std::string>;

bool
contains(const Items &items, const std::string &needle)
{
    return std::find(items.begin(), items.end(), needle) !=
           items.end();
}

FuzzCase
brokenCase()
{
    FuzzCase c;
    c.plan = "seed=9;at=12000:core_off=1;rate=0.001:flip=ae;"
             "at=6000:mig_delay=8;rate=0.0002:bus_drop;"
             "at=30000:core_on=1;rate=0.0001:mig_drop;at=1:flip=tag";
    c.instructions = 40'000;
    return c;
}

size_t
statementCount(const std::string &spec)
{
    if (spec.empty())
        return 0;
    return static_cast<size_t>(
               std::count(spec.begin(), spec.end(), ';')) + 1;
}

} // namespace

TEST(Ddmin, ReducesToSingleCulprit)
{
    Items items = {"a", "b", "c", "d", "e", "f", "g", "h"};
    uint64_t probes = 0;
    const Items reduced = ddmin(
        items,
        [](const Items &candidate) {
            return contains(candidate, "e");
        },
        1'000, probes);
    EXPECT_EQ(reduced, Items{"e"});
    EXPECT_GT(probes, 0u);
    EXPECT_LT(probes, 100u);
}

TEST(Ddmin, KeepsInteractingPair)
{
    Items items = {"a", "b", "c", "d", "e", "f", "g", "h"};
    uint64_t probes = 0;
    const Items reduced = ddmin(
        items,
        [](const Items &candidate) {
            return contains(candidate, "b") &&
                   contains(candidate, "g");
        },
        1'000, probes);
    EXPECT_EQ(reduced, (Items{"b", "g"}));
}

TEST(Ddmin, PreservesOrder)
{
    Items items = {"3", "1", "4", "1b", "5", "9", "2", "6"};
    uint64_t probes = 0;
    const Items reduced = ddmin(
        items,
        [](const Items &candidate) {
            return contains(candidate, "9") &&
                   contains(candidate, "4");
        },
        1'000, probes);
    EXPECT_EQ(reduced, (Items{"4", "9"}));
}

TEST(Ddmin, RespectsProbeBudget)
{
    Items items(64, "x");
    items.push_back("y");
    uint64_t probes = 0;
    ddmin(
        items,
        [](const Items &candidate) {
            return contains(candidate, "y");
        },
        5, probes);
    EXPECT_LE(probes, 5u);
}

TEST(Ddmin, IsDeterministic)
{
    const Items items = {"p", "q", "r", "s", "t", "u"};
    const auto fails = [](const Items &candidate) {
        return contains(candidate, "q") && contains(candidate, "t");
    };
    uint64_t probes1 = 0, probes2 = 0;
    const Items r1 = ddmin(items, fails, 1'000, probes1);
    const Items r2 = ddmin(items, fails, 1'000, probes2);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(probes1, probes2);
}

TEST(PlanMinimizer, ReducesBrokenOraclePlanToTwoStatements)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);
    const PlanMinimizer minimizer(harness);

    const MinimizeResult m =
        minimizer.minimize(brokenCase(), "broken_self_test");
    ASSERT_TRUE(m.stillFails);
    EXPECT_LE(statementCount(m.minimized.plan), 3u)
        << m.minimized.plan;
    // The broken oracle needs a core_off and a bus_drop statement;
    // everything else must be gone.
    EXPECT_NE(m.minimized.plan.find("core_off"), std::string::npos);
    EXPECT_NE(m.minimized.plan.find("bus_drop"), std::string::npos);
    EXPECT_EQ(m.minimized.plan.find("flip"), std::string::npos);
    EXPECT_EQ(m.minimized.plan.find("mig_"), std::string::npos);
}

TEST(PlanMinimizer, ShrinksTriggerValues)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);
    const PlanMinimizer minimizer(harness);

    const MinimizeResult m =
        minimizer.minimize(brokenCase(), "broken_self_test");
    ASSERT_TRUE(m.stillFails);
    // The oracle only looks at which sites the plan targets, so the
    // shrinker can take the core_off tick all the way to 0 and the
    // bus_drop rate all the way to 0.
    EXPECT_NE(m.minimized.plan.find("at=0:core_off"),
              std::string::npos)
        << m.minimized.plan;
    EXPECT_NE(m.minimized.plan.find("rate=0:bus_drop"),
              std::string::npos)
        << m.minimized.plan;
}

TEST(PlanMinimizer, MinimizationIsDeterministic)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);
    const PlanMinimizer minimizer(harness);

    const MinimizeResult m1 =
        minimizer.minimize(brokenCase(), "broken_self_test");
    const MinimizeResult m2 =
        minimizer.minimize(brokenCase(), "broken_self_test");
    EXPECT_EQ(m1.minimized.plan, m2.minimized.plan);
    EXPECT_EQ(m1.probes, m2.probes);
}

TEST(PlanMinimizer, NonReproducingFailureIsReportedNotReduced)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    const PropertyHarness harness; // broken oracle NOT armed
    const PlanMinimizer minimizer(harness);
    const FuzzCase c = brokenCase();
    const MinimizeResult m = minimizer.minimize(c, "broken_self_test");
    EXPECT_FALSE(m.stillFails);
    EXPECT_EQ(m.minimized.plan, c.plan) << "input returned unchanged";
    EXPECT_EQ(m.probes, 1u) << "one reproduction probe, no reduction";
}
