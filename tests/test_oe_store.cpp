/**
 * @file
 * Unit tests for O_e storage: unlimited map and the finite affinity
 * cache (section 3.5 / 4.2), the latter checked decision for decision
 * against the shared skewed tag store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "cache/tags.hpp"
#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"

namespace xmig {
namespace {

TEST(UnboundedOeStore, MissInstallsDelta)
{
    UnboundedOeStore store(16);
    // First lookup of a line must force A_e = 0 via O_e = Delta.
    EXPECT_EQ(store.lookup(100, 42), 42);
    EXPECT_EQ(store.stats().misses, 1u);
    // Second lookup returns the stored value regardless of Delta.
    EXPECT_EQ(store.lookup(100, -7), 42);
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(UnboundedOeStore, StoreOverwrites)
{
    UnboundedOeStore store(16);
    store.lookup(5, 0);
    store.store(5, 123);
    EXPECT_EQ(store.lookup(5, 0), 123);
    EXPECT_EQ(store.peek(5), std::optional<int64_t>(123));
    EXPECT_EQ(store.peek(6), std::nullopt);
}

TEST(UnboundedOeStore, SaturatesToAffinityWidth)
{
    UnboundedOeStore store(8); // [-128, 127]
    store.store(1, 1000);
    EXPECT_EQ(store.lookup(1, 0), 127);
    store.store(1, -1000);
    EXPECT_EQ(store.lookup(1, 0), -128);
    EXPECT_EQ(store.lookup(2, 999), 127); // miss-install saturates too
}

AffinityCacheConfig
tinyCache()
{
    AffinityCacheConfig c;
    c.entries = 16;
    c.ways = 4;
    return c;
}

TEST(AffinityCacheStore, MissForcesDelta)
{
    SoaAffinityStore store(tinyCache());
    EXPECT_EQ(store.lookup(9, -5), -5);
    EXPECT_EQ(store.lookup(9, 100), -5); // now a hit
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(AffinityCacheStore, CapacityIsBounded)
{
    SoaAffinityStore store(tinyCache());
    for (uint64_t line = 0; line < 1000; ++line)
        store.lookup(line, 7);
    EXPECT_LE(store.occupancy(), 16u);
}

TEST(AffinityCacheStore, EvictionDropsPayload)
{
    AffinityCacheConfig c = tinyCache();
    c.entries = 4;
    c.ways = 4; // one set: easy to overflow
    SoaAffinityStore store(c);
    store.lookup(1, 0);
    store.store(1, 77);
    for (uint64_t line = 2; line < 10; ++line)
        store.lookup(line, 0);
    // Line 1 must have been displaced; a fresh lookup re-installs
    // Delta, not the stale 77.
    EXPECT_EQ(store.peek(1), std::nullopt);
    EXPECT_EQ(store.lookup(1, 5), 5);
}

TEST(AffinityCacheStore, StoreReallocatesAfterDisplacement)
{
    AffinityCacheConfig c = tinyCache();
    c.entries = 4;
    SoaAffinityStore store(c);
    store.lookup(1, 0);
    for (uint64_t line = 2; line < 10; ++line)
        store.lookup(line, 0);
    // Line 1's entry is gone; a write-back from the R-window must
    // re-allocate (write-allocate affinity cache).
    store.store(1, -3);
    EXPECT_EQ(store.peek(1), std::optional<int64_t>(-3));
}

TEST(AffinityCacheStore, StorageArithmeticMatchesPaper)
{
    // Section 3.5: 32k entries x (20-bit tag + 16-bit affinity +
    // 2 age bits) = 152 KB; 8k entries = 38 KB.
    AffinityCacheConfig c;
    c.entries = 32 * 1024;
    SoaAffinityStore big(c);
    EXPECT_EQ(big.storageBits(20) / 8 / 1024, 152u);
    c.entries = 8 * 1024;
    SoaAffinityStore small(c);
    EXPECT_EQ(small.storageBits(20) / 8 / 1024, 38u);
}

TEST(OeStoreStats, UnboundedStoreAccounting)
{
    UnboundedOeStore store(16);
    store.lookup(1, 0); // miss
    store.lookup(1, 0); // hit
    store.lookup(2, 0); // miss
    store.store(3, 7);
    store.lookup(3, 0); // hit (direct store created the entry)
    const OeStoreStats &s = store.stats();
    EXPECT_EQ(s.lookups, 4u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits(), 2u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.evictions, 0u); // unbounded storage never evicts
    EXPECT_EQ(store.entries(), 3u);
}

TEST(OeStoreStats, AffinityCacheCountsEvictions)
{
    // A tiny cache under a working set 8x its capacity must evict;
    // every eviction is counted and hits + misses stay consistent.
    AffinityCacheConfig c;
    c.entries = 64;
    c.ways = 4;
    SoaAffinityStore store(c);
    const uint64_t kLines = 512;
    const int rounds = 4;
    for (int r = 0; r < rounds; ++r) {
        for (uint64_t line = 0; line < kLines; ++line)
            store.lookup(line, 0);
    }
    const OeStoreStats &s = store.stats();
    EXPECT_EQ(s.lookups, kLines * rounds);
    EXPECT_EQ(s.hits(), s.lookups - s.misses);
    EXPECT_GT(s.evictions, 0u);
    // Each eviction displaced an earlier fill; the cache can never
    // have evicted more entries than it allocated.
    EXPECT_LE(s.evictions, s.misses + s.stores);
    // Occupancy + evictions = entries ever allocated by misses (no
    // store() fills happened here).
    EXPECT_EQ(store.occupancy() + s.evictions, s.misses);
    EXPECT_LE(store.occupancy(), c.entries);
}

TEST(OeStoreStats, StoreDisplacementCountsAsEviction)
{
    AffinityCacheConfig c;
    c.entries = 16;
    c.ways = 2;
    SoaAffinityStore store(c);
    // Fill via direct store() writes (the R-window write-back path).
    for (uint64_t line = 0; line < 256; ++line)
        store.store(line, 1);
    const OeStoreStats &s = store.stats();
    EXPECT_EQ(s.stores, 256u);
    EXPECT_EQ(s.lookups, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(store.occupancy() + s.evictions, s.stores);
}

TEST(AffinityCacheStore, SkewedVariantWorks)
{
    AffinityCacheConfig c;
    c.entries = 8 * 1024;
    c.ways = 4;
    SoaAffinityStore store(c);
    for (uint64_t line = 0; line < 6000; ++line)
        store.lookup(0x4000000 + line, 3);
    // A sequential working-set below capacity should mostly fit.
    EXPECT_GT(store.occupancy(), 5000u);
    EXPECT_LE(store.occupancy(), 8 * 1024u);
}

TEST(SoaAffinityStore, DecidesExactlyLikeSkewedAgeTags)
{
    // SkewedTags with ReplPolicy::Age is the reference organization:
    // same bank hashes, age window and victim tie-break. Drive both
    // through one mixed lookup/store stream whose footprint is far
    // wider than the cache, so hits, conflict misses and evictions
    // all occur; a value map follows the oracle's resident lines.
    const uint64_t kSets = 128;
    const unsigned kWays = 4;
    AffinityCacheConfig c;
    c.entries = kSets * kWays;
    c.ways = kWays;
    SoaAffinityStore store(c);
    SkewedTags tags(kSets, kWays, ReplPolicy::Age);
    std::unordered_map<uint64_t, int64_t> values;
    uint64_t evictions = 0;
    uint64_t hits = 0;

    Rng rng(2004);
    const int kOps = 160'000;
    for (int op = 0; op < kOps; ++op) {
        // Three in four references go to a hot set of 3/4 of the
        // capacity (strided across the banks), the rest anywhere in a
        // 1M-line space.
        const uint64_t line = rng.below(4) != 0
            ? 0x4000 + rng.below(384) * 7
            : rng.below(uint64_t{1} << 20);
        const bool is_lookup = rng.below(3) != 0;
        const int64_t value = static_cast<int64_t>(rng.below(1 << 18)) -
                              (1 << 17);

        CacheEntry *e = tags.find(line);
        const bool hit = e != nullptr;
        ASSERT_EQ(store.peek(line).has_value(), hit) << "op " << op;
        if (hit) {
            ++hits;
            tags.touch(*e);
        } else {
            CacheEntry victim;
            bool evicted = false;
            tags.allocate(line, &victim, &evicted);
            if (evicted) {
                ++evictions;
                values.erase(victim.line);
            }
        }

        if (is_lookup) {
            const uint64_t misses = store.stats().misses;
            const int64_t oe = store.lookup(line, value);
            ASSERT_EQ(store.stats().misses - misses, hit ? 0u : 1u)
                << "op " << op;
            if (!hit)
                values[line] = saturateToBits(value, c.affinityBits);
            ASSERT_EQ(oe, values[line]) << "op " << op;
        } else {
            store.store(line, value);
            values[line] = saturateToBits(value, c.affinityBits);
        }
        ASSERT_EQ(store.occupancy(), tags.occupancy()) << "op " << op;
    }
    EXPECT_GT(hits, uint64_t{kOps / 4});
    EXPECT_GT(evictions, uint64_t{kOps / 10});
    EXPECT_EQ(store.stats().evictions, evictions);

    std::vector<uint64_t> resident;
    tags.forEachValid(
        [&](const CacheEntry &f) { resident.push_back(f.line); });
    std::sort(resident.begin(), resident.end());
    std::vector<OeEntrySnapshot> snapshot;
    store.snapshotEntries(snapshot);
    ASSERT_EQ(snapshot.size(), resident.size());
    for (size_t i = 0; i < snapshot.size(); ++i) {
        EXPECT_EQ(snapshot[i].line, resident[i]);
        EXPECT_EQ(snapshot[i].oe, values.at(resident[i]));
    }
}

} // namespace
} // namespace xmig
