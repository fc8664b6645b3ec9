/**
 * @file
 * A single cache with write-policy semantics, built on a TagStore.
 *
 * The machine model of the paper needs two flavors:
 *  - L1 data: write-through, non-write-allocate (section 2.1);
 *  - L2: write-back, write-allocate, 4-way skewed-associative.
 * Cache operates on *line addresses*; callers apply LineGeometry.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "cache/tags.hpp"

namespace xmig {

/** Write-handling policy. */
enum class WritePolicy : uint8_t
{
    WriteThroughNoAllocate, ///< stores propagate down; miss: no fill
    WriteBackAllocate,      ///< stores set modified; miss: fill first
};

/** Static configuration of one cache. */
struct CacheConfig
{
    uint64_t capacityBytes = 512 * 1024;
    unsigned ways = 4;
    uint64_t lineBytes = 64;
    WritePolicy write = WritePolicy::WriteBackAllocate;
    ReplPolicy repl = ReplPolicy::Lru;
    bool skewed = false; ///< skewed-associative instead of set-assoc
    uint64_t seed = 1;

    uint64_t numLines() const { return capacityBytes / lineBytes; }
};

/** What one access did, for stats and for driving the level below. */
struct AccessOutcome
{
    bool hit = false;
    bool filled = false;        ///< a frame was allocated for the line
    bool writeThrough = false;  ///< store must be sent downstream (WT)
    bool evictedValid = false;  ///< an existing line was displaced
    bool writeback = false;     ///< ...and it was modified (dirty)
    uint64_t evictedLine = 0;

    /**
     * Frame holding `line` after the operation: the hit entry, or the
     * frame just filled; nullptr when the line was left non-resident
     * (WT-no-allocate store miss). Valid only until the next mutation
     * of the cache. Saves callers a re-probe (xmig-swift).
     */
    CacheEntry *entry = nullptr;
};

/** Hit/miss statistics for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    double
    missRatio() const
    {
        return accesses == 0
            ? 0.0
            : static_cast<double>(misses) / static_cast<double>(accesses);
    }

    CacheStats &
    operator+=(const CacheStats &o)
    {
        accesses += o.accesses;
        hits += o.hits;
        misses += o.misses;
        writebacks += o.writebacks;
        return *this;
    }

    /** Field-wise difference: the tallies added since `o` was taken. */
    CacheStats
    operator-(const CacheStats &o) const
    {
        return {accesses - o.accesses, hits - o.hits, misses - o.misses,
                writebacks - o.writebacks};
    }
};

/**
 * One cache level.
 *
 * Besides the usual access() path, exposes fill() / findEntry() /
 * invalidate() so the multi-core model can implement the paper's
 * migration-mode coherence (mirrored fills, modified-bit transfer,
 * update-bus stores into inactive copies).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Perform a load or store for `line`, applying the write policy.
     * Misses allocate according to the policy.
     */
    AccessOutcome access(uint64_t line, bool is_store);

    /**
     * access() with the tag probe hoisted out: `probe` MUST be the
     * result of findEntry(line) with no intervening mutation of this
     * cache. Lets the migration decision and the L2 access share one
     * probe instead of three (xmig-swift hot path).
     */
    AccessOutcome accessProbed(uint64_t line, bool is_store,
                               CacheEntry *probe);

    /**
     * Install `line` without counting an access (broadcast fills,
     * forwarded lines). No-op if already resident, except that
     * `modified` is ORed into the entry.
     */
    AccessOutcome fill(uint64_t line, bool modified);

    /** True if `line` is resident. */
    bool contains(uint64_t line) const;

    /** Direct access to the frame of `line` (nullptr if absent). */
    CacheEntry *findEntry(uint64_t line) { return findEntryFast(line); }
    const CacheEntry *findEntry(uint64_t line) const;

    /** Remove `line` if resident. */
    bool invalidate(uint64_t line);

    /**
     * Drop every resident line (hot-unplug: the contents are lost,
     * nothing is written back). Returns the number of *modified*
     * lines discarded — data that existed nowhere else.
     */
    uint64_t invalidateAll();

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

    /** Count accesses made on a mirror of this cache (merged tallies). */
    void addStats(const CacheStats &s) { stats_ += s; }

    const CacheConfig &config() const { return config_; }
    TagStore &tags() { return *tags_; }
    const TagStore &tags() const { return *tags_; }

    /**
     * findEntry() with the virtual dispatch peeled off: the concrete
     * tag-store type is fixed at construction, so batch loops probe
     * through a cached concrete pointer and the whole tag scan
     * inlines (xmig-bolt hot path). Identical results to findEntry().
     */
    CacheEntry *
    findEntryFast(uint64_t line)
    {
        if (sa_)
            return sa_->findFast(line);
        if (sk_)
            return sk_->findFast(line);
        return tags_->find(line);
    }

    /**
     * access() with the accesses/hits tallies kept in the caller's
     * registers: the batch loop calls this per reference and settles
     * the two counters once per chunk with settleBatchStats(), so the
     * hot loop does no statistics memory traffic. Misses still drop
     * to the shared out-of-line missPath() (which counts the miss),
     * so the cache *state* transition is exactly access()'s.
     */
    AccessOutcome
    accessTallied(uint64_t line, bool is_store, uint64_t &hits)
    {
        AccessOutcome out;
        CacheEntry *entry = findEntryFast(line);
        if (entry) {
            out.hit = true;
            ++hits;
            if (sa_)
                sa_->touchFast(*entry);
            else if (sk_)
                sk_->touchFast(*entry);
            else
                tags_->touch(*entry);
            if (is_store) {
                if (config_.write == WritePolicy::WriteBackAllocate)
                    entry->modified = true;
                else
                    out.writeThrough = true;
            }
            out.entry = entry;
            return out;
        }
        missPath(line, is_store, out);
        return out;
    }

    /** Fold a batch loop's register tallies into the stats. */
    void
    settleBatchStats(uint64_t accesses, uint64_t hits)
    {
        stats_.accesses += accesses;
        stats_.hits += hits;
    }

    /**
     * access() on the devirtualized probe/touch path. The hit arm is
     * fully header-inline; misses drop to the shared out-of-line
     * missPath(), which accessProbed() uses too — one miss code path,
     * two entry points.
     */
    AccessOutcome
    accessFast(uint64_t line, bool is_store)
    {
        ++stats_.accesses;
        uint64_t hits = 0;
        AccessOutcome out = accessTallied(line, is_store, hits);
        stats_.hits += hits;
        return out;
    }

  private:
    /** The miss arm of accessProbed()/accessFast() (counts the miss). */
    void missPath(uint64_t line, bool is_store, AccessOutcome &out);

    CacheConfig config_;
    std::unique_ptr<TagStore> tags_;
    SetAssocTags *sa_ = nullptr; ///< tags_, when set-associative
    SkewedTags *sk_ = nullptr;   ///< tags_, when skewed
    CacheStats stats_;
};

} // namespace xmig
