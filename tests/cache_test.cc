/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace cdir {
namespace {

TEST(Cache, MissThenHit)
{
    SetAssocCache cache(CacheConfig{16, 2});
    auto first = cache.access(100, false);
    EXPECT_FALSE(first.hit);
    EXPECT_FALSE(first.victim.has_value());
    auto second = cache.access(100, false);
    EXPECT_TRUE(second.hit);
    EXPECT_TRUE(cache.contains(100));
}

TEST(Cache, WriteSetsDirty)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(5, true);
    EXPECT_TRUE(cache.isDirty(5));
}

TEST(Cache, ReadAllocatesClean)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(5, false);
    EXPECT_FALSE(cache.isDirty(5));
}

TEST(Cache, WriteHitOnCleanReportsUpgrade)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(5, false);
    auto res = cache.access(5, true);
    EXPECT_TRUE(res.hit);
    EXPECT_TRUE(res.writeHitClean);
    EXPECT_TRUE(cache.isDirty(5));
    // Second write: already dirty, no upgrade.
    auto res2 = cache.access(5, true);
    EXPECT_FALSE(res2.writeHitClean);
}

TEST(Cache, EvictsLruWithinSet)
{
    SetAssocCache cache(CacheConfig{4, 2});
    // Three blocks mapping to set 0 (multiples of numSets).
    cache.access(0, false);
    cache.access(4, false);
    cache.access(0, false); // make block 0 MRU
    auto res = cache.access(8, false);
    EXPECT_FALSE(res.hit);
    ASSERT_TRUE(res.victim.has_value());
    EXPECT_EQ(*res.victim, 4u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(4));
}

TEST(Cache, EvictionReportsDirtyVictim)
{
    SetAssocCache cache(CacheConfig{4, 1});
    cache.access(0, true);
    auto res = cache.access(4, false);
    ASSERT_TRUE(res.victim.has_value());
    EXPECT_EQ(*res.victim, 0u);
    EXPECT_TRUE(res.victimDirty);
}

TEST(Cache, InvalidateRemovesBlock)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(7, true);
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_FALSE(cache.contains(7));
    EXPECT_FALSE(cache.invalidate(7)); // second time: not resident
    EXPECT_EQ(cache.residentBlocks(), 0u);
}

TEST(Cache, CleanseDowngradesDirtyBlock)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(7, true);
    cache.cleanse(7);
    EXPECT_TRUE(cache.contains(7));
    EXPECT_FALSE(cache.isDirty(7));
}

TEST(Cache, ResidentCountTracksContents)
{
    SetAssocCache cache(CacheConfig{8, 2});
    EXPECT_EQ(cache.residentBlocks(), 0u);
    for (BlockAddr a = 0; a < 8; ++a)
        cache.access(a, false);
    EXPECT_EQ(cache.residentBlocks(), 8u);
    cache.invalidate(3);
    EXPECT_EQ(cache.residentBlocks(), 7u);
}

TEST(Cache, CapacityNeverExceeded)
{
    SetAssocCache cache(CacheConfig{8, 2});
    Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        cache.access(rng.below(1000), rng.chance(0.3));
    EXPECT_LE(cache.residentBlocks(), cache.capacityBlocks());
}

TEST(Cache, ResidentAddressesMatchesContains)
{
    SetAssocCache cache(CacheConfig{8, 4});
    Rng rng(2);
    for (int i = 0; i < 500; ++i)
        cache.access(rng.below(200), false);
    const auto resident = cache.residentAddresses();
    EXPECT_EQ(resident.size(), cache.residentBlocks());
    for (BlockAddr a : resident)
        EXPECT_TRUE(cache.contains(a));
}

TEST(Cache, SetsAreIndependent)
{
    SetAssocCache cache(CacheConfig{4, 1});
    cache.access(0, false); // set 0
    cache.access(1, false); // set 1
    cache.access(2, false); // set 2
    cache.access(3, false); // set 3
    EXPECT_EQ(cache.residentBlocks(), 4u);
    // Filling set 0 does not disturb the others.
    cache.access(4, false);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
}

// Property sweep over geometries: an access pattern of exactly
// `assoc` blocks per set never evicts.
class CacheGeometry
    : public testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{};

TEST_P(CacheGeometry, FullSetResidesWithoutEviction)
{
    const auto [sets, assoc] = GetParam();
    SetAssocCache cache(CacheConfig{sets, assoc});
    for (unsigned w = 0; w < assoc; ++w) {
        for (std::size_t s = 0; s < sets; ++s) {
            auto res = cache.access(s + w * sets, false);
            EXPECT_FALSE(res.victim.has_value());
        }
    }
    EXPECT_EQ(cache.residentBlocks(), sets * assoc);
    // Every block still hits.
    for (unsigned w = 0; w < assoc; ++w)
        for (std::size_t s = 0; s < sets; ++s)
            EXPECT_TRUE(cache.access(s + w * sets, false).hit);
}

TEST_P(CacheGeometry, LruIsExactWithinSet)
{
    const auto [sets, assoc] = GetParam();
    SetAssocCache cache(CacheConfig{sets, assoc});
    // Touch assoc+1 blocks of set 0 in order; the first must be evicted.
    for (unsigned w = 0; w <= assoc; ++w)
        cache.access(BlockAddr{w} * sets, false);
    EXPECT_FALSE(cache.contains(0));
    for (unsigned w = 1; w <= assoc; ++w)
        EXPECT_TRUE(cache.contains(BlockAddr{w} * sets));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    testing::Combine(testing::Values(std::size_t{1}, std::size_t{8},
                                     std::size_t{64}, std::size_t{512}),
                     testing::Values(1u, 2u, 4u, 16u)));

// --- differential reference model --------------------------------------------

/**
 * Test-local true-LRU write-back cache: one list per set, most recently
 * used at the front. Written for clarity, not speed, so it shares no
 * code or layout with SetAssocCache.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : cfg(config), sets(config.numSets)
    {}

    CacheAccessResult
    access(BlockAddr addr, bool is_write)
    {
        CacheAccessResult result;
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        if (it != set.end()) {
            result.hit = true;
            Line line = *it;
            if (is_write && !line.dirty) {
                result.writeHitClean = true;
                line.dirty = true;
            }
            set.erase(it);
            set.push_front(line);
            return result;
        }
        if (set.size() == cfg.assoc) {
            result.victim = set.back().addr;
            result.victimDirty = set.back().dirty;
            set.pop_back();
        }
        set.push_front(Line{addr, is_write});
        return result;
    }

    bool
    contains(BlockAddr addr)
    {
        auto &set = setOf(addr);
        return find(set, addr) != set.end();
    }

    bool
    isDirty(BlockAddr addr)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        return it != set.end() && it->dirty;
    }

    bool
    invalidate(BlockAddr addr)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    }

    void
    cleanse(BlockAddr addr)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        if (it != set.end())
            it->dirty = false;
    }

    std::vector<BlockAddr>
    residentAddresses() const
    {
        std::vector<BlockAddr> out;
        for (const auto &set : sets)
            for (const Line &line : set)
                out.push_back(line.addr);
        return out;
    }

  private:
    struct Line
    {
        BlockAddr addr;
        bool dirty;
    };
    using Set = std::list<Line>;

    Set &setOf(BlockAddr addr) { return sets[addr % cfg.numSets]; }

    static Set::iterator
    find(Set &set, BlockAddr addr)
    {
        return std::find_if(set.begin(), set.end(), [&](const Line &line) {
            return line.addr == addr;
        });
    }

    CacheConfig cfg;
    std::vector<Set> sets;
};

std::vector<BlockAddr>
sorted(std::vector<BlockAddr> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

TEST(Cache, MatchesReferenceModelUnderRandomTraffic)
{
    // Random reads, writes, invalidations and cleanses over a pool about
    // twice the capacity, so hits, clean and dirty evictions, write
    // upgrades and refills of invalidated frames are all common. Half
    // the pool sits at the top of the address space (bit 63 set), where
    // an address could be mistaken for the stamp's dirty flag.
    const CacheConfig geometries[] = {{512, 2}, {1024, 16}, {4, 1}};
    for (const CacheConfig &cfg : geometries) {
        SetAssocCache cache(cfg);
        ReferenceCache ref(cfg);
        Rng rng(0xcace + cfg.numSets * 31 + cfg.assoc);
        const std::uint64_t pool = 2 * cfg.capacityBlocks() + 3;
        const int ops = 200000;
        for (int i = 0; i < ops; ++i) {
            BlockAddr addr = rng.below(pool);
            if (rng.chance(0.5))
                addr |= BlockAddr{1} << 63;
            const std::uint64_t op = rng.below(100);
            if (op < 55 || op >= 90) {
                const bool is_write = op >= 90 || rng.chance(0.3);
                const CacheAccessResult got = cache.access(addr, is_write);
                const CacheAccessResult want = ref.access(addr, is_write);
                ASSERT_EQ(got.hit, want.hit) << "op " << i;
                ASSERT_EQ(got.writeHitClean, want.writeHitClean)
                    << "op " << i;
                ASSERT_EQ(got.victim, want.victim) << "op " << i;
                ASSERT_EQ(got.victimDirty, want.victimDirty) << "op " << i;
            } else if (op < 75) {
                ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                    << "op " << i;
            } else {
                cache.cleanse(addr);
                ref.cleanse(addr);
            }
            ASSERT_EQ(cache.contains(addr), ref.contains(addr)) << "op " << i;
            ASSERT_EQ(cache.isDirty(addr), ref.isDirty(addr)) << "op " << i;
            if (i % 4096 == 0 || i == ops - 1) {
                const auto want = sorted(ref.residentAddresses());
                ASSERT_EQ(cache.residentBlocks(), want.size()) << "op " << i;
                ASSERT_EQ(sorted(cache.residentAddresses()), want)
                    << "op " << i;
            }
        }
    }
}

// --- layout --------------------------------------------------------------------

static_assert(sizeof(SetAssocCache::Frame) == 16,
              "a frame is a tag word and a stamp word, dirty bit included");

TEST(Cache, MemoryIsCapacityTimesFrameSize)
{
    for (const CacheConfig &cfg :
         {CacheConfig{512, 2}, CacheConfig{1024, 16}, CacheConfig{4, 1}}) {
        const SetAssocCache cache(cfg);
        EXPECT_EQ(cache.memoryBytes(),
                  sizeof(SetAssocCache) + cfg.capacityBlocks() * 16);
    }
}

TEST(CacheConfigStruct, CapacityIsSetsTimesWays)
{
    EXPECT_EQ((CacheConfig{512, 2}).capacityBlocks(), 1024u);
    EXPECT_EQ((CacheConfig{1024, 16}).capacityBlocks(), 16384u);
}

} // namespace
} // namespace cdir
