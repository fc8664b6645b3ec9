/**
 * @file
 * Unit and behavior tests for the paper's 2-way and 4-way splitting
 * (sections 3.4-3.6): KWaySplitter at depth 1 and depth 2.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "util/hashing.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

KWaySplitter::Config
twoWay(size_t window)
{
    KWaySplitter::Config c;
    c.depth = 1;
    c.windowX = window;
    return c;
}

KWaySplitter::Config
fourWay(size_t window_x, size_t window_y)
{
    KWaySplitter::Config c;
    c.depth = 2;
    c.windowX = window_x;
    c.windowY = window_y;
    return c;
}

TEST(TwoWaySplit, SubsetFollowsFilterSign)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(twoWay(16), store);
    EXPECT_EQ(splitter.subset(), 0u); // filter starts at +
    const SplitDecision d = splitter.onReference(1);
    EXPECT_TRUE(d.sampled);
    EXPECT_LT(d.subset, 2u);
    EXPECT_EQ(d.subset, splitter.rootFilter().side() > 0 ? 0u : 1u);
}

TEST(TwoWaySplit, SamplingCutoffSkipsLines)
{
    UnboundedOeStore store(16);
    KWaySplitter::Config c = twoWay(16);
    c.samplingCutoff = 8;
    KWaySplitter splitter(c, store);
    uint64_t sampled = 0, skipped = 0;
    for (uint64_t line = 0; line < 310; ++line) {
        const SplitDecision d = splitter.onReference(line);
        (d.sampled ? sampled : skipped) += 1;
        EXPECT_EQ(d.sampled, hashMod31(line) < 8);
        if (!d.sampled) {
            EXPECT_EQ(d.ae, 0);
        }
    }
    EXPECT_EQ(sampled, 80u); // 8 of 31 residues over 310 lines
    // Unsampled lines must not touch the O_e store.
    EXPECT_EQ(store.stats().lookups, sampled);
}

TEST(TwoWaySplit, FilterFrozenWithoutUpdateFlag)
{
    // L2 filtering: with update_filter = false the subset can never
    // change, whatever the affinities do.
    UnboundedOeStore store(16);
    KWaySplitter::Config c = twoWay(16);
    c.filterBits = 16;
    KWaySplitter splitter(c, store);
    UniformRandomStream s(1000);
    for (int t = 0; t < 50000; ++t) {
        const SplitDecision d = splitter.onReference(s.next(), false);
        ASSERT_FALSE(d.transition);
        ASSERT_EQ(d.subset, 0u);
    }
    EXPECT_EQ(splitter.transitions(), 0u);
    // Engine state advanced regardless.
    EXPECT_GT(splitter.rootEngine().references(), 0u);
}

TEST(TwoWaySplit, CircularConvergesToTwoBalancedSubsets)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(twoWay(100), store);
    CircularStream s(4000);
    for (int t = 0; t < 1'000'000; ++t)
        splitter.onReference(s.next());
    std::map<unsigned, uint64_t> count;
    for (int t = 0; t < 4000; ++t)
        ++count[splitter.onReference(s.next()).subset];
    EXPECT_GT(count[0], 1000u);
    EXPECT_GT(count[1], 1000u);
}

TEST(FourWaySplit, SubsetEncodingIsConsistent)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(fourWay(128, 64), store);
    const unsigned s = splitter.subset();
    EXPECT_LT(s, 4u);
    // Fresh filters are all positive: subset 0.
    EXPECT_EQ(s, 0u);
}

TEST(FourWaySplit, OddResiduesDriveXEvenDriveY)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(fourWay(8, 4), store);
    // Line with odd H drives X only.
    uint64_t odd_line = 1; // H(1) = 1
    ASSERT_EQ(hashMod31(odd_line) % 2, 1u);
    splitter.onReference(odd_line);
    EXPECT_EQ(splitter.rootEngine().references(), 1u);
    // Even-H line drives a Y engine, not X.
    uint64_t even_line = 2; // H(2) = 2
    ASSERT_EQ(hashMod31(even_line) % 2, 0u);
    splitter.onReference(even_line);
    EXPECT_EQ(splitter.rootEngine().references(), 1u);
    // F_X is positive, so the line went to Y[+1] (node 1).
    EXPECT_EQ(splitter.engine(1).references(), 1u);
    EXPECT_EQ(splitter.engine(2).references(), 0u);
}

TEST(FourWaySplit, CircularConvergesToFourBalancedSubsets)
{
    UnboundedOeStore store(16);
    KWaySplitter::Config c = fourWay(128, 64);
    c.filterBits = 20;
    KWaySplitter splitter(c, store);
    CircularStream s(4000);
    for (int t = 0; t < 2'000'000; ++t)
        splitter.onReference(s.next());
    std::map<unsigned, uint64_t> count;
    unsigned prev = 99;
    uint64_t segments = 0;
    for (int t = 0; t < 4000; ++t) {
        const unsigned sub = splitter.onReference(s.next()).subset;
        ++count[sub];
        if (sub != prev)
            ++segments;
        prev = sub;
    }
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_GT(count[k], 600u) << "subset " << k << " too small";
    // Near-contiguous quarters: a handful of time segments per cycle.
    EXPECT_LE(segments, 16u);
}

TEST(FourWaySplit, TransitionsCounted)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(fourWay(128, 64), store);
    UniformRandomStream s(2000);
    for (int t = 0; t < 200'000; ++t)
        splitter.onReference(s.next());
    EXPECT_GT(splitter.transitions(), 0u);
}

} // namespace
} // namespace xmig
