/**
 * @file
 * The working-set splitter: recursive k-way splitting (k = 2^depth).
 *
 * A splitter combines affinity engines with transition filters and
 * working-set sampling into the decision structure of the paper: the
 * *sign of the filter(s)*, not of the raw affinity, names the subset
 * each referenced line belongs to.
 *
 * The tree is a complete binary tree of 2-way mechanisms (engine +
 * filter, sections 3.2-3.4), one per internal node, all sharing one
 * O_e store. The root mechanism X splits the whole working-set; the
 * node at path p (a sign string) splits the subset selected by p.
 * Which node a sampled line drives is chosen by H(e) mod depth, so
 * every tree level receives a share of the sampled lines. Depth 1 is
 * the paper's 2-way splitter; depth 2 is exactly its 4-way splitter
 * (section 3.6): odd residues drive X, even ones Y[sign(F_X)]. Deeper
 * trees realize the section 6 conjecture that the scheme extends to
 * a larger number of cores.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/transition_filter.hpp"

namespace xmig {

/** Outcome of presenting one reference to a splitter. */
struct SplitDecision
{
    unsigned subset = 0;     ///< subset index after the update
    bool transition = false; ///< the subset index changed
    bool sampled = false;    ///< line participated in affinity tracking
    int64_t ae = 0;          ///< A_e used (0 when not sampled)
};

/**
 * Recursive splitter for 2^depth subsets.
 */
class KWaySplitter
{
  public:
    static constexpr unsigned kMaxDepth = 6;

    struct Config
    {
        unsigned depth = 3; ///< 2^depth subsets (1 => 2-way, 2 => 4-way)
        unsigned affinityBits = 16;
        /** |R_X| of the root mechanism. */
        size_t windowX = 128;
        /**
         * |R_Y| of the level-1 mechanisms (the paper's Y[+1], Y[-1]);
         * level l >= 1 uses max(4, windowY >> (l - 1)).
         */
        size_t windowY = 64;
        WindowKind window = WindowKind::Fifo;
        ArKind ar = ArKind::Exact;
        unsigned filterBits = 20;
        /** Track lines with H(e) < cutoff; 31 disables sampling. */
        uint32_t samplingCutoff = 31;

        /**
         * Arm the shadow-model oracle on the root mechanism X. Only
         * the root is shadowable: its lines always drive it, while
         * deeper nodes swap lines as the sign path above them moves,
         * leaving O_e values no single-engine model can predict.
         */
        ShadowMode shadow = ShadowMode::Off;
        uint64_t shadowDeepCheckEvery = 4096;

        /** Soft-error hook shared by all tree nodes (xmig-iron). */
        FaultInjector *faults = nullptr;
    };

    KWaySplitter(const Config &config, OeStore &store);

    /**
     * Present a reference.
     * @param update_filter false implements L2 filtering: the engine
     *        state advances but the filters (and hence the subset)
     *        cannot change.
     */
    SplitDecision onReference(uint64_t line, bool update_filter = true);

    /**
     * Current subset in [0, 2^depth): the root-to-leaf path of filter
     * signs, root in the most significant bit, 1 = negative.
     */
    unsigned subset() const { return subset_; }

    unsigned numSubsets() const { return 1u << config_.depth; }
    uint64_t transitions() const { return transitions_; }

    /** Mechanisms allocated (2^depth - 1 internal tree nodes). */
    size_t numMechanisms() const { return engines_.size(); }

    /**
     * Engine / filter of tree node `node` in heap order: the root is
     * 0 and the children of i are 2i+1 (filter positive) and 2i+2.
     */
    const AffinityEngine &engine(size_t node) const
    {
        return *engines_[node];
    }
    const TransitionFilter &filter(size_t node) const
    {
        return filters_[node];
    }

    /** Root mechanism X (the only shadow-auditable one; see Config). */
    const AffinityEngine &rootEngine() const { return *engines_[0]; }
    AffinityEngine &rootEngine() { return *engines_[0]; }

    /** Root transition filter (the whole-working-set split). */
    const TransitionFilter &rootFilter() const { return filters_[0]; }

    /** Zero every node's filter (watchdog re-initialization). */
    void resetFilters();

    /** Append engine/filter state in heap (tree-index) order. */
    void checkpoint(std::vector<EngineCheckpoint> &engines,
                    std::vector<FilterCheckpoint> &filters) const;

    /** Restore state captured by checkpoint() (sizes must match). */
    void restore(const std::vector<EngineCheckpoint> &engines,
                 const std::vector<FilterCheckpoint> &filters);

    /**
     * Register the transition count and every tree node's mechanism
     * under `prefix`: `.transitions`, `.node<i>.engine.*`,
     * `.node<i>.filter.*`.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    /** Attach the xmig-lens journal to every node's engine. */
    void attachJournal(obs::Journal *journal);

  private:
    /** One tree node's mechanism. */
    struct NodeRef
    {
        AffinityEngine *engine = nullptr;
        TransitionFilter *filter = nullptr;
    };

    /**
     * Recompute the cached subset and residue-to-node map from the
     * filters' sign path.
     */
    void recomputePath();

    Config config_;
    std::vector<std::unique_ptr<AffinityEngine>> engines_; ///< heap order
    std::vector<TransitionFilter> filters_;                 ///< heap order
    /** Node on the current sign path each H(e) residue drives. */
    std::array<NodeRef, 31> nodeOf_{};
    unsigned subset_ = 0;
    uint64_t transitions_ = 0;
};

} // namespace xmig
