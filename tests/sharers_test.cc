/**
 * @file
 * Unit and property tests for the by-value sharer sets: every format at
 * cache counts straddling the 64-cache inline word (63/64/65, where
 * cache id 63 is the word's top bit), the pointer/coarse transitions,
 * the storage-bit geometry the model charges, lean-vs-full equivalence
 * under churn, and spill-block recycling.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bit_util.hh"
#include "common/rng.hh"
#include "sharers/sharer_set.hh"

namespace cdir {
namespace {

/** Targets of @p set as a plain id set (for comparisons). */
std::set<CacheId>
targetsOf(const SharerStore &store, const SharerSet &set)
{
    DynamicBitset bits;
    store.invalidationTargets(set, bits);
    EXPECT_EQ(bits.size(), store.numCaches());
    std::set<CacheId> out;
    bits.forEachSetBit(
        [&](std::size_t c) { out.insert(static_cast<CacheId>(c)); });
    return out;
}

// --- shared property suite ---------------------------------------------------

struct SetCase
{
    SharerFormat format;
    std::size_t caches;
};

const char *
formatName(SharerFormat format)
{
    switch (format) {
      case SharerFormat::FullVector:
        return "Full";
      case SharerFormat::CoarseVector:
        return "Coarse";
      case SharerFormat::Compressed:
        return "Compressed";
      case SharerFormat::Hierarchical:
        return "Hier";
    }
    return "?";
}

std::string
caseName(const testing::TestParamInfo<SetCase> &info)
{
    return std::string(formatName(info.param.format)) + "_" +
           std::to_string(info.param.caches);
}

std::vector<SetCase>
allCases()
{
    std::vector<SetCase> cases;
    for (const SharerFormat format :
         {SharerFormat::FullVector, SharerFormat::CoarseVector,
          SharerFormat::Hierarchical, SharerFormat::Compressed}) {
        for (const std::size_t caches : {16, 63, 64, 65, 1024})
            cases.push_back({format, caches});
    }
    return cases;
}

class SharerSetProperty : public testing::TestWithParam<SetCase>
{
  protected:
    std::size_t caches() const { return GetParam().caches; }
    bool precise() const
    {
        return GetParam().format != SharerFormat::CoarseVector;
    }

    SharerStore store{GetParam().format, GetParam().caches};
    SharerSet set;
};

TEST_P(SharerSetProperty, StartsEmpty)
{
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(store.count(set), 0u);
    EXPECT_TRUE(targetsOf(store, set).empty());
}

TEST_P(SharerSetProperty, AddThenTargeted)
{
    store.add(set, 0);
    EXPECT_FALSE(set.empty());
    EXPECT_EQ(store.count(set), 1u);
    EXPECT_EQ(targetsOf(store, set), std::set<CacheId>{0});
}

TEST_P(SharerSetProperty, RemoveLastSharerEmpties)
{
    store.add(set, 1);
    EXPECT_TRUE(store.remove(set, 1));
    EXPECT_TRUE(set.empty());
}

TEST_P(SharerSetProperty, RemoveReturnsFalseWhileOthersRemain)
{
    store.add(set, 0);
    store.add(set, 1);
    EXPECT_FALSE(store.remove(set, 0));
    EXPECT_TRUE(store.remove(set, 1));
}

TEST_P(SharerSetProperty, TopCacheIdsRoundTrip)
{
    // The highest ids of the geometry, plus 63 and 64 where they exist:
    // 63 is the inline word's top bit (a shift of an int there, or by
    // 64, is undefined behaviour), 64 is the first id past it.
    std::set<CacheId> ids = {static_cast<CacheId>(caches() - 1),
                             static_cast<CacheId>(caches() - 2)};
    for (const CacheId c : {CacheId{63}, CacheId{64}})
        if (c < caches())
            ids.insert(c);
    for (const CacheId c : ids)
        store.add(set, c);
    EXPECT_EQ(store.count(set), ids.size());
    const std::set<CacheId> targets = targetsOf(store, set);
    for (const CacheId c : ids)
        EXPECT_TRUE(targets.count(c)) << "cache " << c;
    if (precise()) {
        EXPECT_EQ(targets, ids);
    }
    std::size_t left = ids.size();
    for (const CacheId c : ids)
        EXPECT_EQ(store.remove(set, c), --left == 0) << "cache " << c;
    EXPECT_TRUE(set.empty());
}

TEST_P(SharerSetProperty, NeverFalseNegative)
{
    // Whatever the format does internally, a true sharer is always
    // covered by the invalidation targets, the count is exact, and the
    // precise formats target exactly the sharers.
    Rng rng(42);
    std::set<CacheId> truth;
    for (int step = 0; step < 500; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(caches()));
        if (rng.chance(0.6)) {
            store.add(set, cache);
            truth.insert(cache);
        } else if (!truth.empty()) {
            auto it = truth.begin();
            std::advance(it, rng.below(truth.size()));
            const bool emptied = store.remove(set, *it);
            truth.erase(it);
            ASSERT_EQ(emptied, truth.empty()) << "step " << step;
        }
        const std::set<CacheId> targets = targetsOf(store, set);
        for (const CacheId c : truth)
            ASSERT_TRUE(targets.count(c)) << "step " << step;
        if (precise()) {
            ASSERT_EQ(targets, truth) << "step " << step;
        }
        ASSERT_EQ(store.count(set), truth.size()) << "step " << step;
    }
}

TEST_P(SharerSetProperty, ClearEmpties)
{
    for (CacheId c = 0; c < 4; ++c)
        store.add(set, c);
    store.clear(set);
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(targetsOf(store, set).empty());
}

TEST_P(SharerSetProperty, AssignLeavesTheWriterAlone)
{
    // The write-hit update: whatever the set held (coarse groups
    // included), the writer becomes the sole, exactly-tracked sharer.
    for (CacheId c = 0; c < 5; ++c)
        store.add(set, c);
    const auto writer = static_cast<CacheId>(caches() - 1);
    store.assign(set, writer);
    EXPECT_EQ(store.count(set), 1u);
    EXPECT_EQ(targetsOf(store, set), std::set<CacheId>{writer});
    EXPECT_TRUE(store.remove(set, writer));
}

TEST_P(SharerSetProperty, DuplicateAddIsIdempotent)
{
    // Every format, coarse mode included: add() tracks membership, so
    // re-adding an existing sharer must not inflate the count (the
    // directory's read-hit path calls add() for the requester whether
    // or not it is already recorded).
    store.add(set, 2);
    store.add(set, 2);
    EXPECT_EQ(store.count(set), 1u);
    EXPECT_TRUE(store.remove(set, 2));
    EXPECT_TRUE(set.empty());
}

TEST_P(SharerSetProperty, StorageBitsPositive)
{
    EXPECT_GT(sharerStorageBits(GetParam().format, caches()), 0u);
}

TEST_P(SharerSetProperty, OneSpanStaysInlineTwoSpansSpill)
{
    // Sharers within one 64-cache span stay in the slot; a sharer in a
    // second span spills the membership to a block (above 64 caches).
    const auto top = static_cast<CacheId>(caches() - 1);
    store.add(set, top);
    EXPECT_EQ(store.heapBytes(), 0u);
    store.add(set, 0);
    EXPECT_EQ(store.heapBytes() == 0, caches() <= 64);
    // Sets are moved by value: copy the handle to a second slot and drop
    // the first, as a Cuckoo displacement does.
    const SharerSet moved = set;
    set = SharerSet{};
    EXPECT_EQ(store.count(moved), 2u);
    const std::set<CacheId> targets = targetsOf(store, moved);
    EXPECT_TRUE(targets.count(0));
    EXPECT_TRUE(targets.count(top));
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SharerSetProperty,
                         testing::ValuesIn(allCases()), caseName);

TEST(SharerSetLayout, EntryIsSixteenBytes)
{
    static_assert(sizeof(SharerSet) == 16);
    EXPECT_TRUE(SharerSet{}.empty());
}

// --- FullVector specifics -----------------------------------------------------

TEST(FullVector, PreciseTargets)
{
    SharerStore store(SharerFormat::FullVector, 16);
    SharerSet set;
    store.add(set, 3);
    store.add(set, 9);
    EXPECT_EQ(targetsOf(store, set), (std::set<CacheId>{3, 9}));
}

TEST(FullVector, StorageIsOneBitPerCache)
{
    EXPECT_EQ(sharerStorageBits(SharerFormat::FullVector, 16), 16u);
    EXPECT_EQ(sharerStorageBits(SharerFormat::FullVector, 1024), 1024u);
}

// --- CoarseVector specifics ----------------------------------------------------

/** Coarse-format fixture at @p caches caches. */
struct Coarse
{
    explicit Coarse(std::size_t caches)
        : store(SharerFormat::CoarseVector, caches)
    {}
    SharerStore store;
    SharerSet set;
};

TEST(CoarseVector, StaysPreciseWithinPointerBudget)
{
    Coarse c(64); // budget = 2*6 = 12 bits, 2 pointers
    c.store.add(c.set, 10);
    c.store.add(c.set, 50);
    EXPECT_EQ(targetsOf(c.store, c.set), (std::set<CacheId>{10, 50}));
}

TEST(CoarseVector, OverflowSwitchesToCoarse)
{
    Coarse c(64); // 12 groups of 6 caches
    c.store.add(c.set, 1);
    c.store.add(c.set, 2);
    c.store.add(c.set, 3); // third sharer overflows two pointers
    EXPECT_EQ(c.store.count(c.set), 3u);
    // Group 0 covers caches 0..5.
    EXPECT_EQ(targetsOf(c.store, c.set),
              (std::set<CacheId>{0, 1, 2, 3, 4, 5}));
}

TEST(CoarseVector, CoarseTargetsAreSuperset)
{
    Coarse c(64);
    c.store.add(c.set, 0);
    c.store.add(c.set, 20);
    c.store.add(c.set, 40);
    const std::set<CacheId> targets = targetsOf(c.store, c.set);
    EXPECT_TRUE(targets.count(0));
    EXPECT_TRUE(targets.count(20));
    EXPECT_TRUE(targets.count(40));
    // Three groups of six caches each.
    EXPECT_EQ(targets.size(), 18u);
}

TEST(CoarseVector, SpilledOverflowCoversWholeGroups)
{
    // 1024 caches: 20 groups of ceil(1024/20) = 52 caches; the
    // membership lives in a spill block, the groups stay inline.
    Coarse c(1024);
    for (const CacheId id : {CacheId{0}, CacheId{500}, CacheId{1023}})
        c.store.add(c.set, id);
    const std::set<CacheId> targets = targetsOf(c.store, c.set);
    EXPECT_EQ(targets.size(), 52u + 52u + (1024u - 19u * 52u));
    EXPECT_TRUE(targets.count(520 - 1)); // end of 500's group
    EXPECT_TRUE(targets.count(988));     // start of the last group
    EXPECT_FALSE(targets.count(52));
}

TEST(CoarseVector, StorageBitsMatchBudget)
{
    EXPECT_EQ(sharerStorageBits(SharerFormat::CoarseVector, 16), 8u);
    EXPECT_EQ(sharerStorageBits(SharerFormat::CoarseVector, 64), 12u);
    EXPECT_EQ(sharerStorageBits(SharerFormat::CoarseVector, 1024), 20u);
}

TEST(CoarseVector, EmptiesFromCoarseMode)
{
    Coarse c(32);
    c.store.add(c.set, 0);
    c.store.add(c.set, 1);
    c.store.add(c.set, 2);
    ASSERT_GT(targetsOf(c.store, c.set).size(), 3u); // coarse
    EXPECT_FALSE(c.store.remove(c.set, 0));
    EXPECT_FALSE(c.store.remove(c.set, 1));
    EXPECT_TRUE(c.store.remove(c.set, 2));
    EXPECT_TRUE(c.set.empty());
    // Reset to precise pointer mode: two sharers are exact again.
    c.store.add(c.set, 0);
    c.store.add(c.set, 31);
    EXPECT_EQ(targetsOf(c.store, c.set), (std::set<CacheId>{0, 31}));
}

TEST(CoarseVector, CoarseModeRetainsGroupBitsUntilEmpty)
{
    Coarse c(64);
    c.store.add(c.set, 0);
    c.store.add(c.set, 1);
    c.store.add(c.set, 30);
    c.store.remove(c.set, 30);
    // Group bits are never cleared by a removal: 30's group stays.
    const std::set<CacheId> targets = targetsOf(c.store, c.set);
    EXPECT_TRUE(targets.count(0));
    EXPECT_TRUE(targets.count(1));
    EXPECT_TRUE(targets.count(30));
}

TEST(CoarseVector, CoarseReAddDoesNotDoubleCount)
{
    // Regression pin: re-adding a tracked sharer in coarse mode used to
    // inflate the count, so the removal sequence could never drain the
    // entry back to empty (leaking the directory entry).
    Coarse c(64);
    c.store.add(c.set, 1);
    c.store.add(c.set, 2);
    c.store.add(c.set, 3);
    ASSERT_EQ(c.store.count(c.set), 3u);
    c.store.add(c.set, 2); // re-add while coarse
    EXPECT_EQ(c.store.count(c.set), 3u);
    EXPECT_FALSE(c.store.remove(c.set, 1));
    EXPECT_FALSE(c.store.remove(c.set, 2));
    EXPECT_TRUE(c.store.remove(c.set, 3));
    EXPECT_TRUE(c.set.empty());
}

TEST(CoarseVector, CoarseRemoveOfUntrackedCacheIsANoOp)
{
    Coarse c(64);
    c.store.add(c.set, 0);
    c.store.add(c.set, 1);
    c.store.add(c.set, 2);
    // 3 shares group 0's coarse bit but was never added; removing it
    // must not disturb the count.
    EXPECT_FALSE(c.store.remove(c.set, 3));
    EXPECT_EQ(c.store.count(c.set), 3u);
}

TEST(CoarseVector, SmallSystemsDegenerate)
{
    // 2 caches: budget = 2 bits, groups of 1 — effectively full vector.
    Coarse c(2);
    c.store.add(c.set, 0);
    c.store.add(c.set, 1);
    EXPECT_EQ(targetsOf(c.store, c.set), (std::set<CacheId>{0, 1}));
}

// --- Hierarchical specifics -----------------------------------------------------

TEST(Hierarchical, PreciseTargets)
{
    SharerStore store(SharerFormat::Hierarchical, 100);
    SharerSet set;
    for (const CacheId c : {CacheId{0}, CacheId{55}, CacheId{99}})
        store.add(set, c);
    EXPECT_EQ(targetsOf(store, set), (std::set<CacheId>{0, 55, 99}));
}

TEST(Hierarchical, RootStorageBitsFormula)
{
    // sqrt split: 1024 caches -> 32 clusters of 32.
    EXPECT_EQ(sharerStorageBits(SharerFormat::Hierarchical, 1024), 32u);
    EXPECT_EQ(sharerStorageBits(SharerFormat::Hierarchical, 16), 4u);
}

TEST(Hierarchical, NonSquareClusterGeometryIsExact)
{
    // 128 caches: clusters of isqrtCeil(128) = 12, which pack into 11
    // clusters — one less than ceil(sqrt(128)) = 12. The float-based
    // derivation used to charge the extra cluster.
    EXPECT_EQ(isqrtCeil(128), 12u);
    EXPECT_EQ(sharerStorageBits(SharerFormat::Hierarchical, 128), 11u);
    // 8192 caches (the 4096-core Shared-L2 grid point): 91 clusters of
    // 91 exactly covers 8281 >= 8192.
    EXPECT_EQ(sharerStorageBits(SharerFormat::Hierarchical, 8192), 91u);
}

TEST(Hierarchical, IsqrtExactAtLargeNonSquares)
{
    // Around a large perfect square, where a double sqrt can land on
    // the wrong side: 94906265^2 just exceeds 2^53.
    constexpr std::uint64_t r = 94906265;
    static_assert(isqrtFloor(r * r) == r);
    static_assert(isqrtFloor(r * r - 1) == r - 1);
    static_assert(isqrtCeil(r * r) == r);
    static_assert(isqrtCeil(r * r + 1) == r + 1);
    static_assert(isqrtCeil(0) == 0);
    static_assert(isqrtCeil(1) == 1);
    static_assert(isqrtCeil(2) == 2);
    EXPECT_EQ(isqrtFloor(~std::uint64_t{0}), 4294967295u);
}

// --- lean formats and footprint ----------------------------------------------

TEST(Compressed, StorageChargeMatchesFullVector)
{
    // The compressed format is a host-RAM choice, not a protocol
    // change: the modeled storage bits stay one per cache, so every
    // behavioural statistic is identical to a FullVector run.
    EXPECT_EQ(sharerStorageBits(SharerFormat::Compressed, 1024), 1024u);
    EXPECT_EQ(sharerStorageBits(SharerFormat::Compressed, 4096), 4096u);
}

TEST(Compressed, LeanFormatsMatchFullVectorUnderChurnAt1024Caches)
{
    // Lean-vs-full equivalence at CMP scale: identical add/remove
    // streams must produce identical counts, emptiness answers, and
    // invalidation target sets at every step.
    constexpr std::size_t kCaches = 1024;
    SharerStore full(SharerFormat::FullVector, kCaches);
    SharerStore compressed(SharerFormat::Compressed, kCaches);
    SharerStore hier(SharerFormat::Hierarchical, kCaches);
    SharerSet a, b, c;
    Rng rng(2026);
    std::set<CacheId> truth;
    for (int step = 0; step < 4000; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(kCaches));
        if (rng.chance(0.55)) {
            full.add(a, cache);
            compressed.add(b, cache);
            hier.add(c, cache);
            truth.insert(cache);
        } else {
            const bool emptied = full.remove(a, cache);
            EXPECT_EQ(compressed.remove(b, cache), emptied)
                << "step " << step;
            EXPECT_EQ(hier.remove(c, cache), emptied) << "step " << step;
            truth.erase(cache);
        }
        ASSERT_EQ(compressed.count(b), full.count(a)) << "step " << step;
        ASSERT_EQ(hier.count(c), full.count(a)) << "step " << step;
        if (step % 97 == 0) {
            const std::set<CacheId> expected = targetsOf(full, a);
            ASSERT_EQ(expected, truth) << "step " << step;
            ASSERT_EQ(targetsOf(compressed, b), expected);
            ASSERT_EQ(targetsOf(hier, c), expected);
        }
    }
    full.clear(a);
    compressed.clear(b);
    hier.clear(c);
    EXPECT_TRUE(a.empty() && b.empty() && c.empty());
}

TEST(SpillBlocks, RecycledAcrossEntries)
{
    // Above 64 caches a set with sharers in two spans spills into a
    // per-store block; an emptied or cleared set hands its block back,
    // so a second generation of entries reuses the high-water chunks.
    SharerStore store(SharerFormat::FullVector, 4096);
    std::vector<SharerSet> sets(40);
    auto spill = [&](SharerSet &set, std::size_t i) {
        store.add(set, static_cast<CacheId>(i * 100));
        store.add(set, static_cast<CacheId>(i * 100 + 64));
    };
    for (std::size_t i = 0; i < sets.size(); ++i)
        spill(sets[i], i);
    const std::size_t high_water = store.heapBytes();
    EXPECT_GT(high_water, 0u);
    for (std::size_t i = 0; i < sets.size(); ++i) {
        if (i % 2 == 0) {
            store.clear(sets[i]);
        } else {
            store.remove(sets[i], static_cast<CacheId>(i * 100));
            EXPECT_TRUE(
                store.remove(sets[i], static_cast<CacheId>(i * 100 + 64)));
        }
        EXPECT_TRUE(sets[i].empty());
    }
    for (std::size_t i = 0; i < sets.size(); ++i)
        spill(sets[i], sets.size() - 1 - i);
    EXPECT_EQ(store.heapBytes(), high_water);
}

TEST(SpillBlocks, InlineStoresOwnNoHeap)
{
    for (const SharerFormat format :
         {SharerFormat::FullVector, SharerFormat::CoarseVector,
          SharerFormat::Hierarchical, SharerFormat::Compressed}) {
        SharerStore store(format, 64);
        std::vector<SharerSet> sets(100);
        for (std::size_t i = 0; i < sets.size(); ++i)
            for (CacheId c = 0; c < 64; c += 9)
                store.add(sets[i], static_cast<CacheId>((c + i) % 64));
        EXPECT_EQ(store.heapBytes(), 0u) << formatName(format);
    }
}

} // namespace
} // namespace cdir
