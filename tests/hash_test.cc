/**
 * @file
 * Unit and property tests for the hash families: range, determinism,
 * bijectivity of the skewing permutation chunks, inter-way dispersion,
 * and distribution uniformity.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "hash/hash_family.hh"
#include "hash/skewing_hash.hh"
#include "hash/strong_hash.hh"

namespace cdir {
namespace {

struct FamilyCase
{
    HashKind kind;
    unsigned ways;
    std::size_t sets;
};

std::string
caseName(const testing::TestParamInfo<FamilyCase> &info)
{
    const auto &c = info.param;
    std::string kind = c.kind == HashKind::Skewing  ? "Skewing"
                       : c.kind == HashKind::Strong ? "Strong"
                                                    : "Modulo";
    return kind + "_" + std::to_string(c.ways) + "w" +
           std::to_string(c.sets) + "s";
}

class HashFamilyProperty : public testing::TestWithParam<FamilyCase>
{
  protected:
    void SetUp() override
    {
        const auto &c = GetParam();
        family = makeHashFamily(c.kind, c.ways, c.sets, 99);
        ASSERT_NE(family, nullptr);
    }
    std::unique_ptr<HashFamily> family;
};

TEST_P(HashFamilyProperty, ReportsConfiguredShape)
{
    EXPECT_EQ(family->numWays(), GetParam().ways);
    EXPECT_EQ(family->setsPerWay(), GetParam().sets);
}

TEST_P(HashFamilyProperty, IndexInRange)
{
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        const Tag tag = rng.next();
        for (unsigned w = 0; w < family->numWays(); ++w)
            ASSERT_LT(family->index(w, tag), family->setsPerWay());
    }
}

TEST_P(HashFamilyProperty, Deterministic)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const Tag tag = rng.next();
        for (unsigned w = 0; w < family->numWays(); ++w)
            ASSERT_EQ(family->index(w, tag), family->index(w, tag));
    }
}

TEST_P(HashFamilyProperty, RoughlyUniformOverSets)
{
    // Chi-squared-style sanity bound: with n >> sets random tags, each
    // bucket should be within 40% of the expected load.
    const std::size_t sets = family->setsPerWay();
    const int n = static_cast<int>(sets) * 200;
    for (unsigned w = 0; w < family->numWays(); ++w) {
        std::vector<int> load(sets, 0);
        Rng rng(3 + w);
        for (int i = 0; i < n; ++i)
            ++load[family->index(w, rng.next())];
        const double expected = double(n) / double(sets);
        for (std::size_t s = 0; s < sets; ++s) {
            EXPECT_GT(load[s], expected * 0.6)
                << "way " << w << " set " << s;
            EXPECT_LT(load[s], expected * 1.4)
                << "way " << w << " set " << s;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, HashFamilyProperty,
    testing::Values(FamilyCase{HashKind::Skewing, 2, 64},
                    FamilyCase{HashKind::Skewing, 3, 256},
                    FamilyCase{HashKind::Skewing, 4, 512},
                    FamilyCase{HashKind::Skewing, 8, 128},
                    FamilyCase{HashKind::Strong, 2, 64},
                    FamilyCase{HashKind::Strong, 3, 256},
                    FamilyCase{HashKind::Strong, 4, 512},
                    FamilyCase{HashKind::Strong, 8, 1024},
                    FamilyCase{HashKind::Modulo, 4, 256}),
    caseName);

// indexAll is the probe hot path and index() the reference: the two
// must agree for every kind, arity and index width the families accept.
TEST(HashFamilyProperty, IndexAllMatchesIndex)
{
    Rng rng(0x1dea);
    for (HashKind kind :
         {HashKind::Skewing, HashKind::Strong, HashKind::Modulo}) {
        for (unsigned ways : {2u, 3u, 4u, 8u}) {
            for (unsigned width = 2; width <= 24; ++width) {
                const auto family = makeHashFamily(
                    kind, ways, std::size_t{1} << width, 99);
                std::size_t all[kMaxProbeWays];
                for (int i = 0; i < 200; ++i) {
                    const Tag tag = rng.next();
                    family->indexAll(tag, all);
                    for (unsigned w = 0; w < ways; ++w)
                        ASSERT_EQ(all[w], family->index(w, tag))
                            << "kind " << int(kind) << " ways " << ways
                            << " width " << width << " way " << w
                            << " tag " << tag;
                }
            }
        }
    }
}

// --- Skewing specifics ----------------------------------------------------

TEST(SkewingHash, WaysDisagreeOnConflictingTags)
{
    // Two tags that collide in way 0 should usually not collide in the
    // other ways — the inter-bank dispersion property (§4.1).
    SkewingHashFamily family(4, 256);
    Rng rng(7);
    int conflicts_everywhere = 0;
    int pairs = 0;
    std::map<std::size_t, Tag> first_by_index;
    for (int i = 0; i < 50000 && pairs < 500; ++i) {
        const Tag tag = rng.next();
        const std::size_t idx0 = family.index(0, tag);
        auto it = first_by_index.find(idx0);
        if (it == first_by_index.end()) {
            first_by_index.emplace(idx0, tag);
            continue;
        }
        if (it->second == tag)
            continue;
        ++pairs;
        bool all_same = true;
        for (unsigned w = 1; w < 4; ++w)
            if (family.index(w, tag) != family.index(w, it->second))
                all_same = false;
        if (all_same)
            ++conflicts_everywhere;
    }
    ASSERT_GT(pairs, 100);
    // Transitive full conflicts must be very rare.
    EXPECT_LT(conflicts_everywhere, pairs / 50);
}

TEST(SkewingHash, Way0IsPlainXorFold)
{
    // Way 0 applies no sigma powers: index = a1 ^ a2 ^ a3.
    SkewingHashFamily family(2, 16);
    const Tag tag = 0x3 | (0x5 << 4) | (0x9 << 8);
    EXPECT_EQ(family.index(0, tag),
              static_cast<std::size_t>(0x3 ^ 0x5 ^ 0x9));
}

TEST(SkewingHash, DifferentWaysDifferentFunctions)
{
    SkewingHashFamily family(4, 512);
    Rng rng(11);
    // For random tags, ways must not all compute the same index.
    int identical = 0;
    for (int i = 0; i < 1000; ++i) {
        const Tag tag = rng.next();
        const std::size_t i0 = family.index(0, tag);
        bool all_equal = true;
        for (unsigned w = 1; w < 4; ++w)
            if (family.index(w, tag) != i0)
                all_equal = false;
        if (all_equal)
            ++identical;
    }
    EXPECT_LT(identical, 10);
}

TEST(SkewingHash, ChunkPermutationIsBijective)
{
    // The sigma underlying each way permutes the index-chunk space:
    // restricting tags to a single chunk must enumerate every index.
    for (unsigned way = 0; way < 4; ++way) {
        SkewingHashFamily family(4, 64);
        std::set<std::size_t> images;
        for (Tag a1 = 0; a1 < 64; ++a1)
            images.insert(family.index(way, a1));
        EXPECT_EQ(images.size(), 64u) << "way " << way;
    }
}

TEST(SkewingHash, IndicesPinnedToParent)
{
    // Golden (width, way, tag) -> index samples of the reference LFSR
    // construction; any rewrite of sigma/sigmaInv must reproduce them.
    struct Pin
    {
        unsigned width;
        unsigned way;
        Tag tag;
        std::size_t index;
    };
    static constexpr Pin pins[] = {
        {2, 7, 0x0000ffffffffffffull, 0x0},
        {2, 6, 0xe1f591112fb5051bull, 0x0},
        {2, 5, 0xf985e1f2fb897b03ull, 0x1},
        {3, 7, 0x0000ffffffffffffull, 0x7},
        {3, 3, 0x4e1acb1dbe288cacull, 0x2},
        {3, 5, 0xc68396bba4130cfcull, 0x0},
        {5, 7, 0x0000ffffffffffffull, 0x1c},
        {5, 4, 0xacaedbe9142e2838ull, 0xf},
        {5, 4, 0x4f5dd53950ae0901ull, 0x19},
        {9, 7, 0x0000ffffffffffffull, 0x17f},
        {9, 4, 0x8f6d7ae8fa36bd65ull, 0x9b},
        {9, 6, 0x4cb6620fc1a9525cull, 0x51},
        {12, 7, 0x0000ffffffffffffull, 0x9d0},
        {12, 0, 0x73c2ea788c42310bull, 0xda4},
        {12, 0, 0xd1bc2ceb7e30b51bull, 0xd6e},
        {16, 7, 0x0000ffffffffffffull, 0x1699},
        {16, 0, 0xe5aae0e02e036101ull, 0xafe2},
        {16, 2, 0x4aa79640dfae6ceeull, 0x63e9},
        {20, 7, 0x0000ffffffffffffull, 0x3fcf1},
        {20, 6, 0x9c5ed8bd8b8bed74ull, 0x2ff47},
        {20, 3, 0x3c2ac4c244757c29ull, 0x3e77f},
        {24, 7, 0x0000ffffffffffffull, 0x137c36},
        {24, 6, 0xf37375b6b47f4d37ull, 0xa1b56},
        {24, 1, 0x6036f8f3be1f715dull, 0xdd3fe5},
    };
    for (const Pin &pin : pins) {
        SkewingHashFamily family(8, std::size_t{1} << pin.width);
        std::size_t all[8];
        family.indexAll(pin.tag, all);
        EXPECT_EQ(family.index(pin.way, pin.tag), pin.index)
            << "width " << pin.width << " way " << pin.way;
        EXPECT_EQ(all[pin.way], pin.index)
            << "width " << pin.width << " way " << pin.way;
    }
}

// --- Strong hash specifics --------------------------------------------------

TEST(StrongHash, MixAvalanches)
{
    // Flipping one input bit should flip ~half the output bits.
    Rng rng(13);
    double total_flips = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        const std::uint64_t x = rng.next();
        const unsigned bit = static_cast<unsigned>(rng.below(64));
        const std::uint64_t d =
            StrongHashFamily::mix(x) ^
            StrongHashFamily::mix(x ^ (1ull << bit));
        total_flips += std::popcount(d);
    }
    EXPECT_NEAR(total_flips / trials, 32.0, 2.0);
}

TEST(StrongHash, SeedsChangeFunctions)
{
    StrongHashFamily a(4, 256, 1), b(4, 256, 2);
    int same = 0;
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        const Tag tag = rng.next();
        if (a.index(0, tag) == b.index(0, tag))
            ++same;
    }
    // Two random functions over 256 buckets agree ~1/256 of the time.
    EXPECT_LT(same, 30);
}

TEST(ModuloHash, UsesLowBitsForEveryWay)
{
    ModuloHashFamily family(4, 128);
    for (Tag tag : {Tag{0}, Tag{1}, Tag{127}, Tag{128}, Tag{0xabcdef}}) {
        for (unsigned w = 0; w < 4; ++w)
            EXPECT_EQ(family.index(w, tag),
                      static_cast<std::size_t>(tag & 127));
    }
}

TEST(HashFactory, BuildsEveryKind)
{
    for (HashKind kind :
         {HashKind::Skewing, HashKind::Strong, HashKind::Modulo}) {
        auto family = makeHashFamily(kind, 3, 64, 5);
        ASSERT_NE(family, nullptr);
        EXPECT_EQ(family->numWays(), 3u);
        EXPECT_EQ(family->setsPerWay(), 64u);
    }
}

} // namespace
} // namespace cdir
