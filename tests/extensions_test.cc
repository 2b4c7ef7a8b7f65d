/**
 * @file
 * Tests for the paper's §6 extensions implemented in this repository:
 * the bucketized Cuckoo table (Panigrahy [30]), the overflow stash
 * (Kirsch et al. [22]), and the Elbow directory (Spjuth et al.
 * [37,38]) — including the comparative claims the paper makes about
 * them.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "common/stats.hh"
#include "directory/cuckoo_directory.hh"
#include "directory/cuckoo_table.hh"

#include "dir_test_util.hh"

namespace cdir {
namespace {

// --- bucketized cuckoo table ---------------------------------------------------

TEST(BucketizedCuckoo, CapacityScalesWithBucketSlots)
{
    auto family = makeHashFamily(HashKind::Strong, 2, 64, 1);
    CuckooTable<int> table(*family, 32, 4);
    EXPECT_EQ(table.capacity(), 2u * 64u * 4u);
    EXPECT_EQ(table.slotsPerBucket(), 4u);
}

TEST(BucketizedCuckoo, HoldsMultipleCollidingTagsPerBucket)
{
    // With 4-slot buckets, four tags hashing to the same (way, set)
    // coexist without displacement.
    auto family = makeHashFamily(HashKind::Modulo, 2, 16, 1);
    CuckooTable<int> table(*family, 32, 4);
    for (Tag t = 0; t < 4; ++t) {
        auto res = table.insert(t * 16, 1); // same modulo index
        EXPECT_EQ(res.attempts, 1u);
        EXPECT_FALSE(res.discarded);
    }
    for (Tag t = 0; t < 4; ++t)
        EXPECT_NE(table.find(t * 16), nullptr);
}

TEST(BucketizedCuckoo, FindAndEraseAcrossBucketSlots)
{
    auto family = makeHashFamily(HashKind::Strong, 3, 64, 2);
    CuckooTable<int> table(*family, 32, 2);
    std::set<Tag> live;
    Rng rng(3);
    while (table.occupancy() < 0.6) {
        const Tag tag = rng.next() >> 4;
        if (table.find(tag))
            continue;
        if (!table.insert(tag, 7).discarded)
            live.insert(tag);
    }
    for (Tag t : live)
        ASSERT_NE(table.find(t), nullptr);
    for (Tag t : live)
        ASSERT_TRUE(table.erase(t).has_value());
    EXPECT_EQ(table.size(), 0u);
}

TEST(BucketizedCuckoo, ReachesHigherOccupancyThanFlatTwoAry)
{
    // §6: multiple elements per bucket "may offer additional
    // improvement in the behavior ... at high directory occupancy".
    auto run = [](unsigned bucket_slots, std::size_t sets) {
        auto family = makeHashFamily(HashKind::Strong, 2, sets, 5);
        CuckooTable<char> table(*family, 32, bucket_slots);
        Rng rng(7);
        std::uint64_t failures = 0, inserts = 0;
        // Push to 70% occupancy or until failures dominate.
        for (int i = 0; i < 60000 && table.occupancy() < 0.70; ++i) {
            const Tag tag = rng.next() >> 4;
            if (table.find(tag))
                continue;
            ++inserts;
            if (table.insert(tag, 0).discarded)
                ++failures;
        }
        return std::pair<double, double>(
            table.occupancy(), double(failures) / double(inserts));
    };
    // Equal capacity: flat 2x4096 vs bucketized 2x1024x4.
    const auto flat = run(1, 4096);
    const auto bucketized = run(4, 1024);
    EXPECT_GT(bucketized.first, flat.first - 0.01);
    EXPECT_LT(bucketized.second, flat.second);
}

// --- stash ------------------------------------------------------------------------

TEST(StashCuckoo, AbsorbsOverflowInsteadOfInvalidating)
{
    // Tiny 2-ary table with a stash: overflow entries park in the stash
    // and remain findable; no forced evictions until the stash fills.
    CuckooDirectory dir(8, 2, 4, SharerFormat::FullVector,
                        HashKind::Strong, 4, 3, 1, 16);
    Rng rng(9);
    std::set<Tag> inserted;
    while (dir.stashAbsorbed() < 4 && inserted.size() < 60) {
        const Tag tag = rng.next() >> 3;
        if (dir.probe(tag))
            continue;
        auto res = test::accessDir(dir, tag, 0, false);
        ASSERT_FALSE(res.insertDiscarded);
        inserted.insert(tag);
        if (inserted.size() > 24)
            break; // table (8) + stash (16) bound
    }
    EXPECT_GT(dir.stashAbsorbed(), 0u);
    EXPECT_EQ(dir.stats().forcedEvictions, 0u);
    for (Tag t : inserted)
        ASSERT_TRUE(dir.probe(t)) << "tag " << t;
}

TEST(StashCuckoo, FullStashFallsBackToDiscard)
{
    CuckooDirectory dir(8, 2, 4, SharerFormat::FullVector,
                        HashKind::Strong, 4, 3, 1, 2);
    Rng rng(11);
    int attempts = 0;
    while (dir.stats().forcedEvictions == 0 && attempts < 500) {
        const Tag tag = rng.next() >> 3;
        if (!dir.probe(tag))
            test::accessDir(dir, tag, 0, false);
        ++attempts;
    }
    EXPECT_GT(dir.stats().forcedEvictions, 0u);
    EXPECT_LE(dir.stashSize(), 2u);
}

TEST(StashCuckoo, StashEntriesUpdateAndRetire)
{
    CuckooDirectory dir(8, 2, 4, SharerFormat::FullVector,
                        HashKind::Strong, 4, 3, 1, 8);
    // Fill until something lands in the stash, remembering every tag
    // that stayed tracked.
    Rng rng(13);
    std::vector<Tag> tags;
    while (dir.stashSize() == 0) {
        const Tag tag = rng.next() >> 3;
        if (!dir.probe(tag)) {
            test::accessDir(dir, tag, 2, false);
            tags.push_back(tag);
        }
    }
    std::erase_if(tags, [&](Tag t) { return !dir.probe(t); });
    const std::size_t entries_before = dir.validEntries();
    // Every tracked tag can gain sharers, wherever it lives; retiring
    // the last sharer frees the entry.
    ASSERT_FALSE(tags.empty());
    for (Tag t : tags) {
        auto res = test::accessDir(dir, t, 5, false); // add sharer
        EXPECT_TRUE(res.hit);
    }
    EXPECT_EQ(dir.validEntries(), entries_before);
    for (Tag t : tags) {
        dir.removeSharer(t, 2);
        dir.removeSharer(t, 5);
    }
    EXPECT_EQ(dir.validEntries(), 0u);
}

TEST(StashCuckoo, DrainsBackIntoTableOnFrees)
{
    CuckooDirectory dir(8, 2, 4, SharerFormat::FullVector,
                        HashKind::Strong, 4, 3, 1, 8);
    Rng rng(17);
    std::vector<Tag> live;
    while (dir.stashSize() < 2) {
        const Tag tag = rng.next() >> 3;
        if (dir.probe(tag))
            continue;
        test::accessDir(dir, tag, 0, false);
        live.push_back(tag);
    }
    const std::size_t stash_before = dir.stashSize();
    // Free a few table entries: the stash should drain opportunistically.
    std::size_t freed = 0;
    for (Tag t : live) {
        if (freed >= 4)
            break;
        dir.removeSharer(t, 0);
        ++freed;
    }
    EXPECT_LT(dir.stashSize(), stash_before);
}

// --- Elbow directory ------------------------------------------------------------

/** An Elbow slice built through the organization table. */
std::unique_ptr<Directory>
makeElbow(std::size_t num_caches, unsigned ways, std::size_t sets)
{
    DirectoryParams p;
    p.organization = "Elbow";
    p.numCaches = num_caches;
    p.ways = ways;
    p.sets = sets;
    return makeDirectory(p);
}

/** Insertions an Elbow slice resolved by its one relocation. */
std::uint64_t
relocations(const Directory &dir)
{
    return dir.stats().attemptHistogram.at(2);
}

TEST(Elbow, SingleRelocationResolvesSimpleConflict)
{
    auto dir = makeElbow(8, 2, 8);
    Rng rng(19);
    // Load until the first relocation happens; no eviction may precede
    // it unless no one-hop move existed.
    while (relocations(*dir) == 0 && dir->validEntries() < 14) {
        const Tag tag = rng.next() >> 3;
        if (!dir->probe(tag))
            test::accessDir(*dir, tag, 0, false);
    }
    EXPECT_GT(relocations(*dir), 0u);
}

TEST(Elbow, ProtocolSemanticsMatchOtherOrganizations)
{
    auto dir = makeElbow(8, 4, 64);
    test::accessDir(*dir, 0x10, 1, false);
    test::accessDir(*dir, 0x10, 2, false);
    auto res = test::accessDir(*dir, 0x10, 1, true);
    ASSERT_TRUE(res.hadSharerInvalidations);
    EXPECT_TRUE(res.sharerInvalidations.test(2));
    EXPECT_FALSE(res.sharerInvalidations.test(1));
    dir->removeSharer(0x10, 1);
    EXPECT_FALSE(dir->probe(0x10));
}

TEST(Elbow, MoreForcedInvalidationsThanCuckooAtEqualSize)
{
    // §6: the Elbow cache "experiences more forced invalidations than
    // the Cuckoo directory" because it is limited to one displacement.
    const unsigned ways = 4;
    const std::size_t sets = 256;
    auto elbow = makeElbow(8, ways, sets);
    CuckooDirectory cuckoo(8, ways, sets, SharerFormat::FullVector);
    Rng rng(23);
    std::vector<Tag> live;
    const std::size_t target = ways * sets * 3 / 4; // 75% occupancy churn
    for (int i = 0; i < 120000; ++i) {
        if (live.size() >= target) {
            const std::size_t k = rng.below(live.size());
            elbow->removeSharer(live[k], 0);
            cuckoo.removeSharer(live[k], 0);
            live[k] = live.back();
            live.pop_back();
        } else {
            const Tag tag = rng.next() >> 4;
            if (elbow->probe(tag) || cuckoo.probe(tag))
                continue;
            test::accessDir(*elbow, tag, 0, false);
            test::accessDir(cuckoo, tag, 0, false);
            live.push_back(tag);
        }
    }
    EXPECT_GT(elbow->stats().forcedEvictions,
              cuckoo.stats().forcedEvictions);
}

TEST(Elbow, FactoryBuildsIt)
{
    DirectoryParams p;
    p.organization = "Elbow";
    p.numCaches = 16;
    p.ways = 4;
    p.sets = 64;
    auto dir = makeDirectory(p);
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->name().substr(0, 5), "Elbow");
}

TEST(BucketizedCuckoo, DirectoryNameReflectsExtensions)
{
    CuckooDirectory dir(8, 3, 64, SharerFormat::FullVector,
                        HashKind::Skewing, 32, 1, 2, 8);
    EXPECT_NE(dir.name().find("b2"), std::string::npos);
    EXPECT_NE(dir.name().find("stash8"), std::string::npos);
}

} // namespace
} // namespace cdir
