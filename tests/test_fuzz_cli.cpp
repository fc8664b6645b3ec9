/**
 * @file
 * xmig-storm CLI hardening: the strict parseFuzzCli contract
 * (in-process) plus end-to-end exit-code checks against the real
 * xmig_fuzz binary — unknown flags and malformed budgets must exit 2
 * with usage text, distinct from exit 1 = failures found.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.hpp"
#include "fuzz/fuzz_cli.hpp"

namespace xmig {
namespace {

FuzzCliParse
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "xmig_fuzz");
    return parseFuzzCli(static_cast<int>(args.size()), args.data());
}

TEST(FuzzCli, DefaultsAreUniformCampaign)
{
    const FuzzCliParse p = parse({});
    ASSERT_EQ(p.exitCode, -1);
    EXPECT_EQ(p.options.mode, FuzzCliOptions::Mode::Campaign);
    EXPECT_EQ(p.options.seed, 1u);
    EXPECT_EQ(p.options.plans, 200u);
    EXPECT_EQ(p.options.budget, 512u);
    EXPECT_EQ(p.options.batch, 16u);
    EXPECT_TRUE(p.options.minimize);
    EXPECT_TRUE(p.options.journal);
    EXPECT_FALSE(p.options.stormWorkloads);
}

TEST(FuzzCli, ParsesAFullSoakInvocation)
{
    const FuzzCliParse p = parse(
        {"--soak", "--seed", "7", "--budget", "128", "--batch", "8",
         "--jobs", "4", "--instr", "50000", "--bench", "179.art",
         "--corpus", "/tmp/corpus", "--repro-dir", "/tmp/repros",
         "--storm-workloads", "--no-journal", "--no-minimize"});
    ASSERT_EQ(p.exitCode, -1) << p.error;
    EXPECT_EQ(p.options.mode, FuzzCliOptions::Mode::Soak);
    EXPECT_EQ(p.options.seed, 7u);
    EXPECT_EQ(p.options.budget, 128u);
    EXPECT_EQ(p.options.batch, 8u);
    EXPECT_EQ(p.options.jobs, 4u);
    EXPECT_EQ(p.options.instructions, 50'000u);
    EXPECT_EQ(p.options.benchmark, "179.art");
    EXPECT_EQ(p.options.corpusDir, "/tmp/corpus");
    EXPECT_EQ(p.options.reproDir, "/tmp/repros");
    EXPECT_TRUE(p.options.stormWorkloads);
    EXPECT_FALSE(p.options.journal);
    EXPECT_FALSE(p.options.minimize);
}

TEST(FuzzCli, ReplayCarriesThePlan)
{
    const FuzzCliParse p =
        parse({"--replay", "seed=5;rate=0.01:bus_drop",
               "--workload-seed", "9"});
    ASSERT_EQ(p.exitCode, -1) << p.error;
    EXPECT_EQ(p.options.mode, FuzzCliOptions::Mode::Replay);
    EXPECT_EQ(p.options.replayPlan, "seed=5;rate=0.01:bus_drop");
    EXPECT_EQ(p.options.workloadSeed, 9u);
}

TEST(FuzzCli, HelpExitsZero)
{
    EXPECT_EQ(parse({"--help"}).exitCode, 0);
    EXPECT_EQ(parse({"-h"}).exitCode, 0);
    EXPECT_NE(std::string(fuzzCliUsage()).find("exit codes"),
              std::string::npos);
}

TEST(FuzzCli, UnknownFlagIsUsageError)
{
    const FuzzCliParse p = parse({"--frobnicate"});
    EXPECT_EQ(p.exitCode, 2);
    EXPECT_NE(p.error.find("unknown flag '--frobnicate'"),
              std::string::npos);
    // Typoed known flags too.
    EXPECT_EQ(parse({"--sead", "3"}).exitCode, 2);
}

TEST(FuzzCli, MalformedNumbersAreUsageErrors)
{
    for (const auto &args : std::vector<std::vector<const char *>>{
             {"--budget", "12x"},
             {"--budget", "-5"},
             {"--budget", ""},
             {"--plans", "two hundred"},
             {"--seed", "0x10"},
             {"--jobs", "4.5"},
         }) {
        const FuzzCliParse p = parse(args);
        EXPECT_EQ(p.exitCode, 2) << args[0] << " " << args[1];
        EXPECT_NE(p.error.find("malformed value"), std::string::npos)
            << p.error;
    }
}

TEST(FuzzCli, MissingAndZeroValuesAreUsageErrors)
{
    EXPECT_EQ(parse({"--budget"}).exitCode, 2);
    EXPECT_EQ(parse({"--bench"}).exitCode, 2);
    EXPECT_EQ(parse({"--replay"}).exitCode, 2);
    // Counts that must be positive.
    EXPECT_EQ(parse({"--plans", "0"}).exitCode, 2);
    EXPECT_EQ(parse({"--budget", "0"}).exitCode, 2);
    EXPECT_EQ(parse({"--batch", "0"}).exitCode, 2);
    EXPECT_EQ(parse({"--jobs", "0"}).exitCode, 2);
    EXPECT_EQ(parse({"--instr", "0"}).exitCode, 2);
    EXPECT_EQ(parse({"--jobs", "4096"}).exitCode, 2);
    // Seeds may legitimately be zero.
    EXPECT_EQ(parse({"--seed", "0"}).exitCode, -1);
    EXPECT_EQ(parse({"--workload-seed", "0"}).exitCode, -1);
}

TEST(FuzzCli, ConflictingModesAreUsageErrors)
{
    EXPECT_EQ(parse({"--guided", "--soak"}).exitCode, 2);
    EXPECT_EQ(parse({"--soak", "--self-test"}).exitCode, 2);
    EXPECT_EQ(
        parse({"--guided", "--replay", "seed=1"}).exitCode, 2);
    const FuzzCliParse p = parse({"--corpus", "/tmp/c"});
    EXPECT_EQ(p.exitCode, 2);
    EXPECT_NE(p.error.find("--corpus"), std::string::npos);
}

#ifdef XMIG_TOOLS_DIR

/** Run the real binary, return its exit code, capture its output. */
int
runTool(const std::string &args, std::string *out)
{
    const std::string cmd = std::string(XMIG_TOOLS_DIR) +
                            "/xmig_fuzz " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr)
        return -1;
    char buf[512];
    out->clear();
    while (fgets(buf, sizeof buf, pipe) != nullptr)
        *out += buf;
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FuzzCliBinary, UsageErrorsExitTwoWithUsageText)
{
    std::string out;
    EXPECT_EQ(runTool("--frobnicate", &out), 2);
    EXPECT_NE(out.find("unknown flag '--frobnicate'"),
              std::string::npos);
    EXPECT_NE(out.find("usage: xmig_fuzz"), std::string::npos);

    EXPECT_EQ(runTool("--budget 12x", &out), 2);
    EXPECT_NE(out.find("malformed value for --budget"),
              std::string::npos);

    EXPECT_EQ(runTool("--guided --soak", &out), 2);
    EXPECT_NE(out.find("conflicting modes"), std::string::npos);
}

TEST(FuzzCliBinary, HelpExitsZeroAndCleanRunsExitZero)
{
    std::string out;
    EXPECT_EQ(runTool("--help", &out), 0);
    EXPECT_NE(out.find("usage: xmig_fuzz"), std::string::npos);

    if (!kFaultEnabled)
        GTEST_SKIP() << "fault hooks compiled out";
    // A tiny clean guided campaign: exit 0 and a coverage line.
    EXPECT_EQ(runTool("--guided --smoke --seed 1 --plans 4 --jobs 2",
                      &out),
              0);
    EXPECT_NE(out.find("coverage: counters_hit="), std::string::npos);
    EXPECT_NE(out.find("oracle_failures: none"), std::string::npos);
}

#endif // XMIG_TOOLS_DIR

} // namespace
} // namespace xmig
