/**
 * @file
 * Tests for the generalized recursive k-way splitter (the section 6
 * "larger number of cores" conjecture).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "util/hashing.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

KWaySplitter::Config
config(unsigned depth)
{
    KWaySplitter::Config c;
    c.depth = depth;
    c.windowX = 128;
    c.windowY = 64;
    c.filterBits = 20;
    return c;
}

/**
 * Test-only reference for the paper's splitters, written straight
 * from sections 3.2-3.6 rather than as a tree. Each mechanism is an
 * AffinityEngine plus a TransitionFilter. The 2-way splitter is one
 * mechanism X fed by every sampled line, its subset the sign of F_X.
 * The 4-way splitter adds Y[+1] and Y[-1]: odd H(e) feeds X, even
 * H(e) feeds Y[sign F_X], and the subset is (sign F_X, sign F_Y).
 * Subset bits are 1 for a negative filter.
 */
class PaperSplitter
{
  public:
    PaperSplitter(unsigned ways, const KWaySplitter::Config &c,
                  OeStore &store)
        : ways_(ways),
          cutoff_(c.samplingCutoff),
          x_(engineConfig(c, c.windowX), store, c.filterBits),
          yPos_(engineConfig(c, c.windowY), store, c.filterBits),
          yNeg_(engineConfig(c, c.windowY), store, c.filterBits)
    {
    }

    SplitDecision
    onReference(uint64_t line, bool update_filter)
    {
        SplitDecision out;
        const unsigned before = subset();
        const uint32_t h = hashMod31(line);
        out.sampled = h < cutoff_;
        if (out.sampled) {
            Mechanism &m = ways_ == 2 || (h & 1) ? x_ : y();
            out.ae = m.engine.reference(line).ae;
            if (update_filter)
                m.filter.update(out.ae);
        }
        out.subset = subset();
        out.transition = out.subset != before;
        if (out.transition)
            ++transitions_;
        return out;
    }

    uint64_t transitions() const { return transitions_; }

  private:
    struct Mechanism
    {
        Mechanism(const EngineConfig &ec, OeStore &store, unsigned bits)
            : engine(ec, store), filter(bits)
        {
        }
        AffinityEngine engine;
        TransitionFilter filter;
    };

    static EngineConfig
    engineConfig(const KWaySplitter::Config &c, size_t window)
    {
        EngineConfig ec;
        ec.affinityBits = c.affinityBits;
        ec.windowSize = window;
        return ec;
    }

    Mechanism &y() { return x_.filter.side() > 0 ? yPos_ : yNeg_; }

    unsigned
    subset()
    {
        const unsigned sx = x_.filter.side() < 0 ? 1u : 0u;
        if (ways_ == 2)
            return sx;
        return sx << 1 | (y().filter.side() < 0 ? 1u : 0u);
    }

    unsigned ways_;
    uint32_t cutoff_;
    Mechanism x_, yPos_, yNeg_;
    uint64_t transitions_ = 0;
};

/**
 * Drive KWaySplitter at `depth` and PaperSplitter side by side over
 * every combination of stream (circular, HalfRandom, uniform),
 * filter width (18, 20), sampling cutoff (8, 31) and L2 filtering
 * (off, or a pseudo-random half of the references frozen); every
 * decision must match field by field.
 */
void
expectMatchesPaper(unsigned depth)
{
    constexpr int kRefs = 300'000;
    uint64_t transitions = 0;
    for (int stream_kind = 0; stream_kind < 3; ++stream_kind) {
        for (const unsigned bits : {18u, 20u}) {
            for (const uint32_t cutoff : {8u, 31u}) {
                for (const bool l2_filtering : {false, true}) {
                    SCOPED_TRACE(testing::Message()
                                 << "stream " << stream_kind << " bits "
                                 << bits << " cutoff " << cutoff
                                 << " l2 " << l2_filtering);
                    std::unique_ptr<ElementStream> s;
                    if (stream_kind == 0)
                        s = std::make_unique<CircularStream>(4000);
                    else if (stream_kind == 1)
                        s = std::make_unique<HalfRandomStream>(300, 64);
                    else
                        s = std::make_unique<UniformRandomStream>(20000);
                    KWaySplitter::Config c = config(depth);
                    c.filterBits = bits;
                    c.samplingCutoff = cutoff;
                    UnboundedOeStore tree_store(16), paper_store(16);
                    KWaySplitter tree(c, tree_store);
                    PaperSplitter paper(1u << depth, c, paper_store);
                    for (uint64_t t = 0; t < kRefs; ++t) {
                        const uint64_t line = s->next();
                        const bool update = !l2_filtering ||
                            (t * 0x9E3779B97F4A7C15ull) >> 63;
                        const SplitDecision a =
                            tree.onReference(line, update);
                        const SplitDecision b =
                            paper.onReference(line, update);
                        ASSERT_EQ(a.subset, b.subset) << "ref " << t;
                        ASSERT_EQ(a.transition, b.transition)
                            << "ref " << t;
                        ASSERT_EQ(a.sampled, b.sampled) << "ref " << t;
                        ASSERT_EQ(a.ae, b.ae) << "ref " << t;
                    }
                    EXPECT_EQ(tree.transitions(), paper.transitions());
                    transitions += tree.transitions();
                }
            }
        }
    }
    // The grid must exercise the transition path, not just agree on
    // a frozen split.
    EXPECT_GT(transitions, 100u);
}

TEST(KWaySplitter, TreeShape)
{
    UnboundedOeStore store(16);
    for (unsigned depth : {1u, 2u, 3u, 4u}) {
        KWaySplitter splitter(config(depth), store);
        EXPECT_EQ(splitter.numSubsets(), 1u << depth);
        EXPECT_EQ(splitter.numMechanisms(), (1u << depth) - 1);
    }
}

TEST(KWaySplitter, SubsetInRange)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(config(3), store);
    UniformRandomStream s(4000);
    for (int t = 0; t < 100'000; ++t)
        ASSERT_LT(splitter.onReference(s.next()).subset, 8u);
}

TEST(KWaySplitter, DepthOneMatchesTwoWayBehavior)
{
    // depth 1 == one mechanism == the paper's 2-way splitter.
    expectMatchesPaper(1);
}

TEST(KWaySplitter, DepthTwoMatchesFourWayBehavior)
{
    // depth 2 == X, Y[+1], Y[-1] == the paper's 4-way splitter.
    expectMatchesPaper(2);
}

TEST(KWaySplitter, TransitionsEqualSumOfFilterFlips)
{
    // Only on-path nodes are updated, so every node flip is a subset
    // change and vice versa; a watchdog-style filter reset is neither.
    for (unsigned depth = 1; depth <= KWaySplitter::kMaxDepth; ++depth) {
        UnboundedOeStore store(16);
        KWaySplitter::Config c = config(depth);
        c.filterBits = 17;
        KWaySplitter splitter(c, store);
        UniformRandomStream s(3000);
        for (int t = 0; t < 200'000; ++t) {
            splitter.onReference(s.next(), t % 3 != 0);
            if (t == 100'000)
                splitter.resetFilters();
        }
        uint64_t flips = 0;
        for (size_t i = 0; i < splitter.numMechanisms(); ++i)
            flips += splitter.filter(i).transitions();
        EXPECT_GT(splitter.transitions(), 0u) << "depth " << depth;
        EXPECT_EQ(splitter.transitions(), flips) << "depth " << depth;
    }
}

TEST(KWaySplitter, LevelWindowsFollowWindowXAndWindowY)
{
    UnboundedOeStore store(16);
    KWaySplitter::Config c = config(3);
    c.windowX = 128;
    c.windowY = 40; // not windowX / 2
    KWaySplitter splitter(c, store);
    EXPECT_EQ(splitter.engine(0).config().windowSize, 128u);
    for (size_t i : {1, 2})
        EXPECT_EQ(splitter.engine(i).config().windowSize, 40u) << i;
    for (size_t i = 3; i < 7; ++i)
        EXPECT_EQ(splitter.engine(i).config().windowSize, 20u) << i;

    // Deep levels halve per level but never drop below 4.
    c.depth = 6;
    c.windowY = 16;
    KWaySplitter deep(c, store);
    EXPECT_EQ(deep.engine(7).config().windowSize, 4u);   // level 3
    EXPECT_EQ(deep.engine(62).config().windowSize, 4u);  // level 5
}

TEST(KWaySplitter, EightWayCircularBalancedSubsets)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(config(3), store);
    CircularStream s(8000);
    for (int t = 0; t < 6'000'000; ++t)
        splitter.onReference(s.next());
    std::map<unsigned, uint64_t> count;
    unsigned prev = 99;
    uint64_t segments = 0;
    for (int t = 0; t < 8000; ++t) {
        const unsigned sub = splitter.onReference(s.next()).subset;
        ++count[sub];
        if (sub != prev)
            ++segments;
        prev = sub;
    }
    // All 8 subsets populated, none dominating.
    EXPECT_EQ(count.size(), 8u);
    for (const auto &[sub, n] : count)
        EXPECT_GT(n, 300u) << "subset " << sub;
    // Time-coherent: bounded number of runs per cycle.
    EXPECT_LE(segments, 48u);
}

TEST(KWaySplitter, FilterFrozenWithoutUpdateFlag)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(config(3), store);
    UniformRandomStream s(2000);
    for (int t = 0; t < 50'000; ++t) {
        const SplitDecision d = splitter.onReference(s.next(), false);
        ASSERT_FALSE(d.transition);
        ASSERT_EQ(d.subset, 0u);
    }
    EXPECT_EQ(splitter.transitions(), 0u);
}

TEST(KWaySplitter, SamplingCutoffRespected)
{
    UnboundedOeStore store(16);
    KWaySplitter::Config c = config(3);
    c.samplingCutoff = 8;
    KWaySplitter splitter(c, store);
    for (uint64_t line = 0; line < 310; ++line) {
        const SplitDecision d = splitter.onReference(line);
        ASSERT_EQ(d.sampled, hashMod31(line) < 8);
    }
    EXPECT_EQ(store.stats().lookups, 80u);
}

} // namespace
} // namespace xmig
