/**
 * @file
 * xmig-forge PropertyHarness: the oracle battery on clean, faulty,
 * invalid, and deliberately "bad" plans.
 */

#include <string>

#include <gtest/gtest.h>

#include "fault/fault_injector.hpp"
#include "fuzz/property_harness.hpp"

using namespace xmig;

namespace {

/** Short cases keep the battery (5 machine runs each) fast. */
FuzzCase
shortCase(const std::string &plan)
{
    FuzzCase c;
    c.plan = plan;
    c.instructions = 40'000;
    return c;
}

std::string
oracles(const CaseResult &r)
{
    std::string out;
    for (const OracleFailure &f : r.failures)
        out += f.oracle + "(" + f.detail + ") ";
    return out;
}

} // namespace

TEST(PropertyHarness, InertPlanPassesAllOracles)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    const PropertyHarness harness;
    const CaseResult r = harness.run(shortCase("seed=3"));
    EXPECT_FALSE(r.failed()) << oracles(r);
    EXPECT_GT(r.refs, 40'000u);
    EXPECT_EQ(r.faultsInjected, 0u);
}

TEST(PropertyHarness, DenseFaultPlanPassesAllOracles)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    const PropertyHarness harness;
    const CaseResult r = harness.run(shortCase(
        "seed=11;at=5000:core_off=2;at=40000:core_on=2;"
        "rate=1e-4:flip=ae;rate=1e-4:flip=delta;rate=1e-5:mig_drop;"
        "at=60000:mig_delay=16;rate=1e-4:bus_drop;at=0:flip=tag"));
    EXPECT_FALSE(r.failed()) << oracles(r);
    EXPECT_GT(r.faultsInjected, 0u);
}

TEST(PropertyHarness, InvalidPlanFailsFastWithoutRunning)
{
    const PropertyHarness harness;
    const CaseResult r = harness.run(shortCase("rate=7:flip=ae"));
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures[0].oracle, "invalid_plan");
    EXPECT_EQ(r.refs, 0u) << "no machine may be constructed";
}

TEST(PropertyHarness, AccountingSeesCertainFireInjections)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    const PropertyHarness harness;
    const CaseResult r = harness.run(shortCase("seed=2;rate=1:flip=ae"));
    EXPECT_FALSE(r.failed()) << oracles(r);
    // rate=1 fires at every opportunity; the accounting oracle
    // reconciles those totals, so a nonzero count proves both the
    // injection path and the oracle saw them.
    EXPECT_GT(r.faultsInjected, 1000u);
}

TEST(PropertyHarness, ResultsAreDeterministic)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    const PropertyHarness harness;
    const FuzzCase c = shortCase(
        "seed=5;at=9000:core_off=1;at=30000:core_on=1;"
        "rate=1e-4:flip=oe;rate=1e-5:bus_drop");
    const CaseResult r1 = harness.run(c);
    const CaseResult r2 = harness.run(c);
    EXPECT_EQ(r1.failed(), r2.failed());
    EXPECT_EQ(r1.refs, r2.refs);
    EXPECT_EQ(r1.migrations, r2.migrations);
    EXPECT_EQ(r1.faultsInjected, r2.faultsInjected);
}

TEST(PropertyHarness, BrokenOracleFiresOnlyWhenArmed)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    const std::string plan =
        "seed=4;at=8000:core_off=3;rate=1e-5:bus_drop";

    const PropertyHarness clean;
    EXPECT_FALSE(clean.run(shortCase(plan)).failed());

    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness broken(hc);
    const CaseResult r = broken.run(shortCase(plan));
    ASSERT_TRUE(r.failed());
    EXPECT_EQ(r.failures[0].oracle, "broken_self_test");
}

TEST(PropertyHarness, BrokenOracleNeedsBothSites)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness broken(hc);
    EXPECT_FALSE(
        broken.run(shortCase("seed=4;at=8000:core_off=3")).failed());
    EXPECT_FALSE(
        broken.run(shortCase("seed=4;rate=1e-5:bus_drop")).failed());
}

TEST(PropertyHarness, WatchdogDisabledByZeroTimeout)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    HarnessConfig hc;
    hc.timeoutMs = 0;
    const PropertyHarness harness(hc);
    EXPECT_FALSE(harness.run(shortCase("seed=1")).failed());
}
