#include "core/kway_splitter.hpp"

#include <algorithm>

#include "util/hashing.hpp"
#include "util/contracts.hpp"

namespace xmig {

KWaySplitter::KWaySplitter(const Config &config, OeStore &store)
    : config_(config)
{
    XMIG_ASSERT(config.depth >= 1 && config.depth <= kMaxDepth,
                "depth %u out of range", config.depth);
    const size_t num_nodes = (size_t(1) << config.depth) - 1;
    engines_.reserve(num_nodes);
    for (size_t i = 0; i < num_nodes; ++i) {
        // Level of heap node i is floor(log2(i+1)).
        unsigned level = 0;
        for (size_t v = i + 1; v > 1; v >>= 1)
            ++level;
        EngineConfig ec;
        ec.affinityBits = config.affinityBits;
        ec.windowSize = level == 0
            ? config.windowX
            : std::max<size_t>(4, config.windowY >> (level - 1));
        ec.window = config.window;
        ec.ar = config.ar;
        if (i == 0) {
            ec.shadow = config.shadow;
            ec.shadowDeepCheckEvery = config.shadowDeepCheckEvery;
            ec.shadowTag = "X";
        }
        ec.faults = config.faults;
        engines_.push_back(std::make_unique<AffinityEngine>(ec, store));
    }
    filters_.assign(num_nodes, TransitionFilter(config.filterBits));
    recomputePath();
}

void
KWaySplitter::recomputePath()
{
    std::array<NodeRef, kMaxDepth> path;
    unsigned bits = 0;
    size_t idx = 0;
    for (unsigned l = 0; l < config_.depth; ++l) {
        // Heap-shape balance bound: the path node at level l must lie
        // inside that level's index band [2^l - 1, 2^(l+1) - 1) of
        // the allocated tree.
        XMIG_AUDIT(idx < filters_.size() && idx + 1 >= (size_t(1) << l) &&
                       idx + 1 < (size_t(1) << (l + 1)),
                   "k-way path node %zu outside level-%u band (of %zu "
                   "nodes)", idx, l, filters_.size());
        path[l] = {engines_[idx].get(), &filters_[idx]};
        const bool negative = filters_[idx].side() < 0;
        bits = (bits << 1) | (negative ? 1u : 0u);
        idx = 2 * idx + (negative ? 2 : 1);
    }
    subset_ = bits;

    // Spread the residues over the tree levels. The offset makes
    // depth 2 reproduce section 3.6 exactly: odd residues drive the
    // root (X), even ones the selected second-level node
    // (Y[sign(F_X)]).
    for (uint32_t h = 0; h < nodeOf_.size(); ++h)
        nodeOf_[h] = path[(h + config_.depth - 1) % config_.depth];
}

SplitDecision
KWaySplitter::onReference(uint64_t line, bool update_filter)
{
    SplitDecision out;
    const uint32_t h = hashMod31(line);
    out.sampled = h < config_.samplingCutoff;
    if (out.sampled) {
        // At depth 1 every residue maps to the root; reading slot 0
        // there keeps the engine address off the hash's latency.
        NodeRef node = nodeOf_[0];
        if (config_.depth > 1)
            node = nodeOf_[h];
        out.ae = node.engine->reference(line).ae;
        // Only on-path nodes are updated, so a node's sign flip is
        // exactly a change of the subset index.
        if (update_filter && node.filter->update(out.ae)) {
            recomputePath();
            out.transition = true;
            ++transitions_;
        }
    }
    out.subset = subset_;
    XMIG_AUDIT(out.subset < numSubsets(),
               "k-way subset %u out of %u", out.subset, numSubsets());
    return out;
}

void
KWaySplitter::attachJournal(obs::Journal *journal)
{
    for (auto &engine : engines_)
        engine->attachJournal(journal);
}

void
KWaySplitter::resetFilters()
{
    for (TransitionFilter &filter : filters_)
        filter.reset();
    recomputePath();
}

void
KWaySplitter::checkpoint(std::vector<EngineCheckpoint> &engines,
                         std::vector<FilterCheckpoint> &filters) const
{
    for (size_t i = 0; i < engines_.size(); ++i) {
        const TransitionFilter &f = filters_[i];
        engines.push_back(engines_[i]->checkpoint());
        filters.push_back({f.value(), f.transitions(), f.updates()});
    }
}

void
KWaySplitter::restore(const std::vector<EngineCheckpoint> &engines,
                      const std::vector<FilterCheckpoint> &filters)
{
    XMIG_ASSERT(engines.size() == engines_.size() &&
                    filters.size() == filters_.size(),
                "k-way checkpoint holds %zu engines / %zu filters for "
                "%zu nodes",
                engines.size(), filters.size(), engines_.size());
    for (size_t i = 0; i < engines_.size(); ++i) {
        engines_[i]->restore(engines[i]);
        filters_[i].restore(filters[i].value, filters[i].transitions,
                            filters[i].updates);
    }
    recomputePath();
}

} // namespace xmig
