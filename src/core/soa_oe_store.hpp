/**
 * @file
 * The finite affinity cache of sections 3.5 and 4.2.
 *
 * An `entries`-frame, `ways`-bank skewed-associative array with 2-bit
 * age-based replacement; each frame holds a tag (the full line
 * address) and the line's saturated O_e value side by side, as the
 * hardware array of section 3.5 does, so a hit is one probe that
 * yields tag match and value together. Placement, the age window and
 * the victim tie-break are those of SkewedTags with ReplPolicy::Age
 * (cache/tags.hpp), which test_oe_store uses as the reference.
 *
 * The frame record is kept as a structure of arrays: tags, O_e
 * values and replacement metadata each live in their own contiguous
 * vector. A probe touches ~8 bytes per candidate bank, the 8k-entry
 * tag array fits in L1, and the periodic age sweep runs over two
 * plain byte arrays the compiler can vectorize.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/oe_store.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace xmig {

/** The bounded O_e store: skewed-associative, age-replaced. */
class SoaAffinityStore : public OeStore
{
  public:
    explicit SoaAffinityStore(const AffinityCacheConfig &config);

    int64_t lookup(uint64_t line, int64_t delta) override;
    void store(uint64_t line, int64_t oe) override;

    std::optional<int64_t> peek(uint64_t line) const override;
    const OeStoreStats &stats() const override { return stats_; }

    bool corruptRandomEntry(Rng &rng) override;

    /** Tag corruption drops the tag *and* its O_e word together. */
    bool dropRandomEntry(Rng &rng) override;

    void snapshotEntries(std::vector<OeEntrySnapshot> &out) const override;
    void restoreEntries(const std::vector<OeEntrySnapshot> &entries,
                        const OeStoreStats &stats) override;

    /** Valid entries; maintained incrementally, O(1). */
    uint64_t occupancy() const { return resident_; }
    const AffinityCacheConfig &config() const { return config_; }

    /**
     * Approximate storage cost in bits: per entry, `tag_bits` of tag,
     * the affinity value, and 2 age bits (section 3.5's accounting).
     */
    uint64_t
    storageBits(unsigned tag_bits = 20) const
    {
        return config_.entries *
               (uint64_t(tag_bits) + config_.affinityBits + 2);
    }

  private:
    static constexpr size_t kNoFrame = ~size_t{0};

    /** Candidate frame index of `line` in bank `way`. */
    size_t
    slotOf(uint64_t line, unsigned way) const
    {
        // Bank 0 is straight modulo, other banks use the skewing
        // hashes; frames are bank-major.
        const uint64_t set = way == 0 ? (line & (setsPerWay_ - 1))
                                      : skewHash(line, way, setsPerWay_);
        return size_t(way) * setsPerWay_ + set;
    }

    /** Frame index holding `line`, or kNoFrame. */
    size_t
    findIndex(uint64_t line) const
    {
        for (unsigned w = 0; w < config_.ways; ++w) {
            const size_t i = slotOf(line, w);
            if (valid_[i] && lines_[i] == line)
                return i;
        }
        return kNoFrame;
    }

    /** Record a use: fresh LRU stamp, age reset. */
    void
    touchIndex(size_t i)
    {
        lastUse_[i] = ++clock_;
        age_[i] = 0;
        ageTick();
    }

    /**
     * Age every valid entry each time the clock crosses a window of a
     * quarter of the capacity — the paper's "few bits for age-based
     * replacement". Vectorizable over the byte arrays.
     */
    void
    ageTick()
    {
        const uint64_t window = lines_.size() / 4 + 1;
        if (clock_ % window != 0)
            return;
        for (size_t i = 0; i < age_.size(); ++i) {
            if (valid_[i] && age_[i] < 3)
                ++age_[i];
        }
    }

    /**
     * Install `line` in the first invalid candidate frame, else in
     * the oldest one (ties to the least recently used), keeping
     * `resident_` current. Returns the frame; `*evicted` says whether
     * a valid entry (`*evicted_line`) was displaced. The caller
     * writes the O_e value.
     */
    size_t allocateIndex(uint64_t line, bool *evicted,
                         uint64_t *evicted_line);

    /** allocateIndex for lookup/store: counts and traces evictions. */
    size_t install(uint64_t line);

    /** Cheap per-call accounting audit + periodic paranoid sweep. */
    void auditConsistency();

    /** The `target`-th valid frame's line, in frame-index order. */
    uint64_t nthValidLine(uint64_t target) const;

    AffinityCacheConfig config_;
    uint64_t setsPerWay_ = 0; ///< sets per bank
    uint64_t clock_ = 0;      ///< replacement clock

    // The frame record, exploded (one slot per frame, frame-indexed).
    std::vector<uint64_t> lines_;   ///< tag: full line address
    std::vector<int64_t> payload_;  ///< O_e value
    std::vector<uint64_t> lastUse_; ///< LRU timestamp (age tie-break)
    std::vector<uint8_t> age_;      ///< 2-bit age counters
    std::vector<uint8_t> valid_;    ///< validity (0/1)

    uint64_t resident_ = 0; ///< valid entries
    OeStoreStats stats_;
    uint64_t auditTick_ = 0; ///< paranoid reconciliation cadence
};

} // namespace xmig
