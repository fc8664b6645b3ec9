/**
 * @file
 * xmig-forge campaigns: byte-stable collation across --jobs, and the
 * find -> minimize -> repro pipeline end to end (broken oracle).
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "fault/fault_injector.hpp"
#include "fuzz/campaign.hpp"
#include "sim/runner/job_pool.hpp"

using namespace xmig;

namespace {

CampaignConfig
smallCampaign(uint64_t seed, uint64_t plans)
{
    CampaignConfig config;
    config.seed = seed;
    config.plans = plans;
    config.instructions = 25'000;
    return config;
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

constexpr uint64_t kBrokenSeed = 3;

} // namespace

TEST(Campaign, SummaryIsByteIdenticalAcrossJobs)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    const CampaignConfig config = smallCampaign(2026, 16);
    const PropertyHarness harness;
    const std::string s1 =
        runCampaign(config, harness, JobPool(1)).summary();
    const std::string s2 =
        runCampaign(config, harness, JobPool(2)).summary();
    const std::string s4 =
        runCampaign(config, harness, JobPool(4)).summary();
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s4);
    EXPECT_NE(s1.find("cases=16"), std::string::npos);
}

TEST(Campaign, CleanCampaignHasNoFailures)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    const CampaignConfig config = smallCampaign(7, 12);
    const PropertyHarness harness;
    const CampaignResult r = runCampaign(config, harness, JobPool(2));
    EXPECT_EQ(r.cases, 12u);
    EXPECT_TRUE(r.failures.empty()) << r.summary();
    EXPECT_GT(r.refs, 0u);
}

TEST(Campaign, BrokenOracleCampaignMinimizesAndWritesRepro)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    // kBrokenSeed samples a batch with several plans targeting both
    // core_off and bus_drop — the broken oracle's trigger.
    CampaignConfig config = smallCampaign(kBrokenSeed, 20);
    config.reproDir = ::testing::TempDir();

    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);
    const CampaignResult r = runCampaign(config, harness, JobPool(2));
    ASSERT_FALSE(r.failures.empty())
        << "seed no longer samples a core_off+bus_drop plan; pick a "
           "new kBrokenSeed";

    const CampaignFailure &f = r.failures.front();
    EXPECT_EQ(f.failure.oracle, "broken_self_test");
    EXPECT_NE(f.minimized.plan, f.original.plan);
    EXPECT_FALSE(f.reproPath.empty());

    const std::string repro = slurp(f.reproPath);
    EXPECT_NE(repro.find("plan=" + f.minimized.plan),
              std::string::npos);
    EXPECT_NE(repro.find("oracle=broken_self_test"),
              std::string::npos);
    EXPECT_NE(repro.find("workload_seed="), std::string::npos);
    EXPECT_NE(repro.find("--replay"), std::string::npos);

    // The summary names the repro and the minimized statement count.
    EXPECT_NE(r.summary().find("oracle=broken_self_test"),
              std::string::npos);
}

TEST(Campaign, MinimizationCanBeDisabled)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    CampaignConfig config = smallCampaign(kBrokenSeed, 20);
    config.minimize = false;

    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);
    const CampaignResult r = runCampaign(config, harness, JobPool(2));
    ASSERT_FALSE(r.failures.empty());
    EXPECT_EQ(r.failures.front().minimized.plan,
              r.failures.front().original.plan);
    EXPECT_EQ(r.failures.front().probes, 0u);
}

TEST(Campaign, ReproFilesAreDeterministic)
{
    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);

    CampaignConfig config = smallCampaign(kBrokenSeed, 20);
    config.reproDir = ::testing::TempDir();
    const CampaignResult r1 = runCampaign(config, harness, JobPool(1));
    const CampaignResult r2 = runCampaign(config, harness, JobPool(4));
    ASSERT_FALSE(r1.failures.empty());
    ASSERT_EQ(r1.failures.size(), r2.failures.size());
    EXPECT_EQ(slurp(r1.failures.front().reproPath),
              slurp(r2.failures.front().reproPath));
    EXPECT_EQ(r1.summary(), r2.summary());
}
