#include "cache/tags.hpp"

#include <bit>

#include "util/hashing.hpp"
#include "util/contracts.hpp"

namespace xmig {

namespace {

/**
 * Pick a victim among `ways` candidate entries according to `policy`.
 * Prefers an invalid frame; `get(i)` returns the i-th candidate.
 */
template <typename Get>
unsigned
pickVictim(ReplPolicy policy, unsigned ways, Rng &rng, Get get)
{
    for (unsigned w = 0; w < ways; ++w) {
        if (!get(w).valid)
            return w;
    }
    switch (policy) {
      case ReplPolicy::Lru: {
        unsigned best = 0;
        for (unsigned w = 1; w < ways; ++w) {
            if (get(w).lastUse < get(best).lastUse)
                best = w;
        }
        return best;
      }
      case ReplPolicy::Fifo: {
        unsigned best = 0;
        for (unsigned w = 1; w < ways; ++w) {
            if (get(w).inserted < get(best).inserted)
                best = w;
        }
        return best;
      }
      case ReplPolicy::Random:
        return static_cast<unsigned>(rng.below(ways));
      case ReplPolicy::Age: {
        // Evict the oldest age; break ties by LRU timestamp.
        unsigned best = 0;
        for (unsigned w = 1; w < ways; ++w) {
            const CacheEntry &c = get(w);
            const CacheEntry &b = get(best);
            if (c.age > b.age || (c.age == b.age && c.lastUse < b.lastUse))
                best = w;
        }
        return best;
      }
    }
    XMIG_PANIC("unknown replacement policy");
}

/** Periodically age all entries for ReplPolicy::Age (2-bit counters). */
inline void
ageTick(std::vector<CacheEntry> &entries, uint64_t clock)
{
    // Age every entry each time the clock crosses a window boundary
    // sized to a fraction of the capacity. This approximates the
    // paper's "few bits for age-based replacement".
    const uint64_t window = entries.size() / 4 + 1;
    if (clock % window != 0)
        return;
    for (auto &e : entries) {
        if (e.valid && e.age < 3)
            ++e.age;
    }
}

} // namespace

SetAssocTags::SetAssocTags(uint64_t num_sets, unsigned ways,
                           ReplPolicy policy, uint64_t seed)
    : numSets_(num_sets),
      ways_(ways),
      policy_(policy),
      rng_(seed),
      entries_(num_sets * ways)
{
    XMIG_ASSERT(num_sets >= 1 && std::has_single_bit(num_sets),
                "set count must be a power of two");
    XMIG_ASSERT(ways >= 1, "need at least one way");
}

CacheEntry *
SetAssocTags::find(uint64_t line)
{
    return findFast(line);
}

const CacheEntry *
SetAssocTags::find(uint64_t line) const
{
    return const_cast<SetAssocTags *>(this)->findFast(line);
}

void
SetAssocTags::touch(CacheEntry &entry)
{
    touchFast(entry);
}

void
SetAssocTags::agePass()
{
    ageTick(entries_, clock_);
}

CacheEntry &
SetAssocTags::allocate(uint64_t line, CacheEntry *evicted,
                       bool *evicted_valid)
{
    const uint64_t set = setOf(line);
    CacheEntry *base = &entries_[set * ways_];
    const unsigned w =
        pickVictim(policy_, ways_, rng_,
                   [&](unsigned i) -> CacheEntry & { return base[i]; });
    CacheEntry &frame = base[w];
    *evicted_valid = frame.valid;
    if (frame.valid && evicted)
        *evicted = frame;
    ++clock_;
    frame.line = line;
    frame.valid = true;
    frame.modified = false;
    frame.prefetched = false;
    frame.lastUse = clock_;
    frame.inserted = clock_;
    frame.age = 0;
    if (policy_ == ReplPolicy::Age)
        ageTick(entries_, clock_);
    return frame;
}

bool
SetAssocTags::invalidate(uint64_t line)
{
    CacheEntry *e = find(line);
    if (!e)
        return false;
    e->valid = false;
    e->modified = false;
    return true;
}

uint64_t
SetAssocTags::occupancy() const
{
    uint64_t n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

void
SetAssocTags::forEachValid(
    const std::function<void(const CacheEntry &)> &fn) const
{
    for (const auto &e : entries_) {
        if (e.valid)
            fn(e);
    }
}

SkewedTags::SkewedTags(uint64_t sets_per_bank, unsigned ways,
                       ReplPolicy policy, uint64_t seed)
    : setsPerBank_(sets_per_bank),
      ways_(ways),
      policy_(policy),
      rng_(seed),
      entries_(sets_per_bank * ways)
{
    XMIG_ASSERT(sets_per_bank >= 1 && std::has_single_bit(sets_per_bank),
                "sets per bank must be a power of two");
    XMIG_ASSERT(ways >= 1, "need at least one bank");
}

CacheEntry *
SkewedTags::find(uint64_t line)
{
    return findFast(line);
}

const CacheEntry *
SkewedTags::find(uint64_t line) const
{
    return const_cast<SkewedTags *>(this)->findFast(line);
}

void
SkewedTags::touch(CacheEntry &entry)
{
    touchFast(entry);
}

void
SkewedTags::agePass()
{
    ageTick(entries_, clock_);
}

CacheEntry &
SkewedTags::allocate(uint64_t line, CacheEntry *evicted,
                     bool *evicted_valid)
{
    const unsigned w = pickVictim(
        policy_, ways_, rng_,
        [&](unsigned i) -> CacheEntry & { return entries_[slotOf(line, i)]; });
    CacheEntry &frame = entries_[slotOf(line, w)];
    *evicted_valid = frame.valid;
    if (frame.valid && evicted)
        *evicted = frame;
    ++clock_;
    frame.line = line;
    frame.valid = true;
    frame.modified = false;
    frame.prefetched = false;
    frame.lastUse = clock_;
    frame.inserted = clock_;
    frame.age = 0;
    if (policy_ == ReplPolicy::Age)
        ageTick(entries_, clock_);
    return frame;
}

bool
SkewedTags::invalidate(uint64_t line)
{
    CacheEntry *e = find(line);
    if (!e)
        return false;
    e->valid = false;
    e->modified = false;
    return true;
}

uint64_t
SkewedTags::occupancy() const
{
    uint64_t n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

void
SkewedTags::forEachValid(
    const std::function<void(const CacheEntry &)> &fn) const
{
    for (const auto &e : entries_) {
        if (e.valid)
            fn(e);
    }
}

} // namespace xmig
