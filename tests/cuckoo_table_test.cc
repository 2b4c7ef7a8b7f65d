/**
 * @file
 * Unit and property tests for the d-ary Cuckoo hash table (§4.1/§4.2):
 * insertion with displacement, attempt accounting, the bounded give-up
 * path, way utilization, and the paper's occupancy claims from §5.1.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "common/stats.hh"
#include "directory/cuckoo_table.hh"
#include "hash/hash_family.hh"

namespace cdir {
namespace {

using Table = CuckooTable<int>;

std::unique_ptr<HashFamily>
strongFamily(unsigned ways, std::size_t sets, std::uint64_t seed = 1)
{
    return makeHashFamily(HashKind::Strong, ways, sets, seed);
}

TEST(CuckooTable, InsertThenFind)
{
    auto family = strongFamily(4, 64);
    Table table(*family);
    auto res = table.insert(42, 7);
    EXPECT_EQ(res.attempts, 1u);
    EXPECT_FALSE(res.discarded);
    ASSERT_NE(table.find(42), nullptr);
    EXPECT_EQ(*table.find(42), 7);
    EXPECT_EQ(table.size(), 1u);
}

TEST(CuckooTable, FindMissingReturnsNull)
{
    auto family = strongFamily(4, 64);
    Table table(*family);
    EXPECT_EQ(table.find(1), nullptr);
    table.insert(1, 1);
    EXPECT_EQ(table.find(2), nullptr);
}

TEST(CuckooTable, EraseReturnsPayload)
{
    auto family = strongFamily(4, 64);
    Table table(*family);
    table.insert(5, 50);
    auto payload = table.erase(5);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, 50);
    EXPECT_EQ(table.find(5), nullptr);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.erase(5).has_value());
}

TEST(CuckooTable, CapacityIsWaysTimesSets)
{
    auto family = strongFamily(3, 128);
    Table table(*family);
    EXPECT_EQ(table.capacity(), 3u * 128u);
    EXPECT_EQ(table.numWays(), 3u);
    EXPECT_EQ(table.setsPerWay(), 128u);
}

TEST(CuckooTable, PrecomputedIndicesMatchRehashing)
{
    // A directory miss hashes once and hands the indices to both the
    // probe and the insertion; that must place, displace and discard
    // exactly like the self-hashing calls, up to a full table.
    for (unsigned bucket : {1u, 2u}) {
        auto family = makeHashFamily(HashKind::Skewing, 4, 64);
        Table rehashing(*family, 32, bucket);
        Table precomputed(*family, 32, bucket);
        Rng rng(23 + bucket);
        for (int i = 0; i < 600; ++i) {
            const Tag tag = rng.next() >> 8;
            std::size_t idx[kMaxProbeWays];
            family->indexAll(tag, idx);
            const std::size_t pos = precomputed.findPos(tag, idx);
            ASSERT_EQ(pos, rehashing.findPos(tag)) << "op " << i;
            if (pos != Table::npos) {
                ASSERT_EQ(precomputed.eraseAt(pos), *rehashing.erase(tag));
                continue;
            }
            const auto want = rehashing.insert(tag, int(i));
            const auto got = precomputed.insert(tag, int(i), idx);
            ASSERT_EQ(got.attempts, want.attempts) << "op " << i;
            ASSERT_EQ(got.discarded, want.discarded) << "op " << i;
            ASSERT_EQ(got.discardedTag, want.discardedTag) << "op " << i;
            ASSERT_EQ(got.discardedPayload, want.discardedPayload);
        }
        EXPECT_EQ(precomputed.size(), rehashing.size());
    }
}

TEST(CuckooTable, DisplacementPreservesAllElements)
{
    // Fill to 50% occupancy; every inserted element must remain findable
    // even though displacements moved entries between ways.
    auto family = strongFamily(4, 256);
    Table table(*family);
    Rng rng(9);
    std::map<Tag, int> truth;
    while (table.size() < table.capacity() / 2) {
        const Tag tag = rng.next() >> 8;
        if (truth.count(tag))
            continue;
        const int value = static_cast<int>(truth.size());
        auto res = table.insert(tag, int{value});
        ASSERT_FALSE(res.discarded);
        truth[tag] = value;
    }
    EXPECT_EQ(table.size(), truth.size());
    for (const auto &[tag, value] : truth) {
        ASSERT_NE(table.find(tag), nullptr) << "lost tag " << tag;
        EXPECT_EQ(*table.find(tag), value);
    }
}

TEST(CuckooTable, ForEachVisitsEverything)
{
    auto family = strongFamily(3, 64);
    Table table(*family);
    std::set<Tag> inserted;
    Rng rng(13);
    for (int i = 0; i < 50; ++i) {
        const Tag tag = rng.next() >> 4;
        if (inserted.insert(tag).second)
            table.insert(tag, 1);
    }
    std::set<Tag> visited;
    table.forEach([&](Tag tag, const int &) { visited.insert(tag); });
    EXPECT_EQ(visited, inserted);
}

TEST(CuckooTable, GiveUpDiscardsMostRecentlyDisplaced)
{
    // A tiny table with few attempts must eventually discard; the
    // discarded element is reported with its payload, and the table
    // stays consistent.
    auto family = strongFamily(2, 4, 3);
    Table table(*family, 8);
    Rng rng(17);
    std::set<Tag> live;
    bool saw_discard = false;
    for (int i = 0; i < 200; ++i) {
        const Tag tag = rng.next() >> 3;
        if (live.count(tag) || table.find(tag))
            continue;
        auto res = table.insert(tag, 0);
        live.insert(tag);
        if (res.discarded) {
            saw_discard = true;
            EXPECT_LE(res.attempts, 8u);
            EXPECT_TRUE(res.discardedPayload.has_value());
            EXPECT_EQ(table.find(res.discardedTag), nullptr);
            live.erase(res.discardedTag);
        }
        ASSERT_LE(table.size(), table.capacity());
        ASSERT_EQ(table.size(), live.size());
        for (Tag t : live)
            ASSERT_NE(table.find(t), nullptr);
    }
    EXPECT_TRUE(saw_discard);
}

TEST(CuckooTable, AttemptsBoundedByMax)
{
    auto family = strongFamily(2, 8, 5);
    Table table(*family, 32);
    Rng rng(19);
    for (int i = 0; i < 500; ++i) {
        const Tag tag = rng.next() >> 2;
        if (table.find(tag))
            continue;
        auto res = table.insert(tag, 0);
        ASSERT_GE(res.attempts, 1u);
        ASSERT_LE(res.attempts, 32u);
    }
}

TEST(CuckooTable, VacantCandidateMeansOneAttempt)
{
    // At very low occupancy, insertions always succeed immediately.
    auto family = strongFamily(4, 1024);
    Table table(*family);
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        const Tag tag = rng.next();
        if (table.find(tag))
            continue;
        auto res = table.insert(tag, 0);
        ASSERT_EQ(res.attempts, 1u);
    }
}

TEST(CuckooTable, WaysFillUniformly)
{
    // The round-robin start way keeps way occupancies close (§4.2).
    auto family = strongFamily(4, 512);
    Table table(*family);
    Rng rng(29);
    while (table.occupancy() < 0.5) {
        const Tag tag = rng.next() >> 4;
        if (!table.find(tag))
            table.insert(tag, 0);
    }
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_NEAR(table.wayOccupancy(w), 0.5, 0.1) << "way " << w;
}

// --- §5.1 paper properties, parameterized over arity -------------------------

class CuckooOccupancy : public testing::TestWithParam<unsigned>
{};

TEST_P(CuckooOccupancy, FiftyPercentNeverFailsForThreeAryAndWider)
{
    const unsigned ways = GetParam();
    if (ways < 3)
        GTEST_SKIP() << "claim applies to 3-ary and wider (§5.1)";
    auto family = strongFamily(ways, 1024, 101 + ways);
    Table table(*family);
    Rng rng(31);
    RunningMean attempts;
    while (table.occupancy() < 0.5) {
        const Tag tag = rng.next() >> 4;
        if (table.find(tag))
            continue;
        auto res = table.insert(tag, 0);
        ASSERT_FALSE(res.discarded)
            << "failure below 50% occupancy in " << ways << "-ary";
        attempts.add(res.attempts);
    }
    // "...successfully inserting all directory entries, on average,
    // after only two attempts" (§5.1).
    EXPECT_LT(attempts.mean(), 2.0);
}

TEST_P(CuckooOccupancy, HighOccupancyIsReachable)
{
    // d-ary cuckoo tables reach high load factors before failing
    // (Fotakis et al.): 3-ary ~90%, 4-ary ~97%.
    const unsigned ways = GetParam();
    auto family = strongFamily(ways, 1024, 7 + ways);
    Table table(*family);
    Rng rng(37);
    double max_occupancy = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const Tag tag = rng.next() >> 4;
        if (table.find(tag))
            continue;
        auto res = table.insert(tag, 0);
        if (!res.discarded)
            max_occupancy = std::max(max_occupancy, table.occupancy());
    }
    if (ways == 2)
        EXPECT_GT(max_occupancy, 0.45);
    else
        EXPECT_GT(max_occupancy, 0.80);
}

INSTANTIATE_TEST_SUITE_P(Arity, CuckooOccupancy,
                         testing::Values(2u, 3u, 4u, 8u),
                         [](const auto &info) {
                             return std::to_string(info.param) + "ary";
                         });

TEST(CuckooTable, SkewingHashesWorkToo)
{
    auto family = makeHashFamily(HashKind::Skewing, 4, 256);
    Table table(*family);
    Rng rng(41);
    std::set<Tag> live;
    while (table.occupancy() < 0.5) {
        const Tag tag = rng.next() >> 10;
        if (table.find(tag))
            continue;
        auto res = table.insert(tag, 0);
        if (!res.discarded)
            live.insert(tag);
        else
            live.erase(res.discardedTag);
    }
    for (Tag t : live)
        ASSERT_NE(table.find(t), nullptr);
}

} // namespace
} // namespace cdir
