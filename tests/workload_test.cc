/**
 * @file
 * Tests for the synthetic workload generators: determinism, region
 * structure, parameter effects, and the Table 2 presets' qualitative
 * sharing profiles (§5.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "common/alloc_counter.hh"
#include "rng_test_util.hh"
#include "workload/feedback.hh"
#include "workload/fleet.hh"
#include "workload/workload.hh"

namespace cdir {
namespace {

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numCores = 4;
    p.codeBlocks = 64;
    p.sharedBlocks = 256;
    p.privateBlocksPerCore = 128;
    p.seed = 1;
    return p;
}

TEST(Zipf, UniformWhenThetaZero)
{
    ZipfSampler z(100, 0.0);
    Rng rng(1);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 1000, 300);
}

TEST(Zipf, SkewFavoursLowRanks)
{
    ZipfSampler z(1000, 0.9);
    Rng rng(2);
    std::map<std::size_t, int> counts;
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample(rng)];
    EXPECT_GT(counts[0], counts[100] * 5);
    EXPECT_GT(counts[0], 1000);
}

TEST(Zipf, SamplesInRange)
{
    ZipfSampler z(17, 0.7);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 17u);
}

TEST(Zipf, SingleItemAlwaysZero)
{
    ZipfSampler z(1, 0.9);
    Rng rng(4);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}

TEST(Zipf, RankCountOutOfRangeThrowsBeforeAllocating)
{
    // The bound is the guide table's 32-bit rank type; it once lived in
    // an assert only, so release builds went on to reserve the tables.
    for (const double theta : {0.0, 0.9}) {
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{ZipfSampler::kMaxRanks} + 1,
              std::size_t{5'000'000'000}}) {
            resetLargestAllocation();
            std::string what;
            try {
                (void)ZipfSampler(n, theta);
            } catch (const std::invalid_argument &e) {
                what = e.what();
            }
            EXPECT_NE(what.find("Zipf rank count must be in 1..4294967295 "
                                "(got " + std::to_string(n) + ")"),
                      std::string::npos)
                << n << ": " << what;
            EXPECT_LT(largestAllocation(), std::size_t{1} << 20) << n;
        }
    }
}

TEST(Fleet, OversizedFootprintNamesItsKnob)
{
    for (const auto &[spec, knob] :
         {std::pair<const char *, const char *>{"fleet:blocks=5000000000",
                                                "blocks per tenant"},
          {"fleet:shared=5000000000", "shared blocks"}}) {
        resetLargestAllocation();
        std::string what;
        try {
            FleetWorkload fleet(parseFleetSpec(spec, 16));
        } catch (const std::invalid_argument &e) {
            what = e.what();
        }
        EXPECT_NE(what.find(std::string(knob) +
                            ": Zipf rank count must be in 1..4294967295 "
                            "(got 5000000000)"),
                  std::string::npos)
            << spec << ": " << what;
        EXPECT_LT(largestAllocation(), std::size_t{1} << 20) << spec;
    }
}

/** The sampler's CDF, rebuilt with the same arithmetic. */
std::vector<double>
referenceCdf(std::size_t n, double theta)
{
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k), theta);
        cdf.push_back(total);
    }
    for (auto &v : cdf)
        v /= total;
    return cdf;
}

TEST(Zipf, GuideTableMatchesFullSearch)
{
    // Every draw must be the first rank whose CDF reaches u: the full
    // lower_bound answer, whatever index narrows the search. Inputs are
    // random raw words plus the raw words landing on every bucket edge
    // b/K of a K = bit_ceil(n) guide table and on the draws just below
    // and above it; rankAt() also takes each edge's nextafter
    // neighbours, which no 53-bit draw produces. theta = 0 is the
    // uniform path: Lemire's reduction of the same raw word.
    Rng words(59);
    for (const std::size_t n : {1, 2, 3, 1000, 1024, 6144, 24576, 100000}) {
        const std::uint64_t k = std::bit_ceil(std::uint64_t{n});
        const unsigned shift = 53 - std::countr_zero(k);
        for (const double theta : {0.0, 0.3, 0.7, 0.9, 1.0, 1.2}) {
            const ZipfSampler zipf(n, theta);
            const std::vector<double> cdf =
                theta > 0.0 ? referenceCdf(n, theta) : std::vector<double>{};
            const auto expected = [&](std::uint64_t raw) -> std::size_t {
                if (theta <= 0.0)
                    return static_cast<std::size_t>(
                        (static_cast<unsigned __int128>(raw) * n) >> 64);
                const double u = static_cast<double>(raw >> 11) * 0x1.0p-53;
                return static_cast<std::size_t>(
                    std::lower_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
            };
            const auto check = [&](std::uint64_t raw) {
                Rng rng = test::rngEmitting(raw);
                ASSERT_EQ(zipf.sample(rng), expected(raw))
                    << "n=" << n << " theta=" << theta << " raw=" << raw;
            };
            for (int i = 0; i < 20000; ++i)
                check(words.next());
            for (std::uint64_t b = 0; b < k; ++b) {
                const std::uint64_t edge = b << shift; // u == b/K
                for (const std::uint64_t x : {edge - 1, edge, edge + 1})
                    if (x < (std::uint64_t{1} << 53))
                        check(x << 11 | (words.next() & 0x7ff));
                if (theta <= 0.0)
                    continue;
                const double u = static_cast<double>(b) / static_cast<double>(k);
                for (const double v :
                     {std::nextafter(u, -1.0), u, std::nextafter(u, 1.0)}) {
                    if (v < 0.0)
                        continue;
                    ASSERT_EQ(zipf.rankAt(v),
                              static_cast<std::size_t>(
                                  std::lower_bound(cdf.begin(), cdf.end(), v) -
                                  cdf.begin()))
                        << "n=" << n << " theta=" << theta << " u=" << v;
                }
            }
        }
    }
}

/** FNV-1a digest of the first @p count accesses of @p source. */
template <typename Source>
std::uint64_t
streamDigest(Source &source, std::size_t count)
{
    std::uint64_t hash = fnv1aInit();
    for (std::size_t i = 0; i < count; ++i) {
        const MemAccess a = source.next();
        hash = fnv1aMix(hash, a.core);
        hash = fnv1aMix(hash, a.addr);
        hash = fnv1aMix(hash, (a.write ? 1u : 0u) | (a.instruction ? 2u : 0u));
    }
    return hash;
}

TEST(Workload, StreamPinnedToParent)
{
    // Generator rewrites must keep every stream bit-identical. The
    // third fleet spec makes churn, storms and the diurnal wave fire
    // inside the window.
    SyntheticWorkload db2(paperWorkloadParams(PaperWorkload::OltpDb2, false, 16));
    EXPECT_EQ(streamDigest(db2, 200000), 0x2bb7eeb29db7781bull) << "DB2";
    SyntheticWorkload ocean(
        paperWorkloadParams(PaperWorkload::SciOcean, true, 16));
    EXPECT_EQ(streamDigest(ocean, 200000), 0xce52b54af9ef1db3ull) << "ocean";
    for (const auto &[spec, digest] :
         {std::pair<const char *, std::uint64_t>{
              "fleet:tenants=16:blocks=8192:churn=200000:storm=500000",
              0x3bd7c5d4ff3968f8ull},
          {"fleet:tenants=16:blocks=8192:churn=7000:storm=30000:"
           "storm-len=2000:diurnal=50000:min-active=4",
           0x998bf5b4cbb8a32full}}) {
        FleetWorkload fleet(parseFleetSpec(spec, 16));
        EXPECT_EQ(streamDigest(fleet, 200000), digest) << spec;
        if (fleet.params().churnEvery < 200000) {
            EXPECT_GT(fleet.churnEvents(), 0u) << spec;
            EXPECT_GT(fleet.stormOnsets(), 0u) << spec;
        }
    }
}

TEST(Workload, DeterministicForSeed)
{
    SyntheticWorkload a(tinyParams()), b(tinyParams());
    for (int i = 0; i < 1000; ++i) {
        const MemAccess x = a.next(), y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.core, y.core);
        EXPECT_EQ(x.write, y.write);
        EXPECT_EQ(x.instruction, y.instruction);
    }
}

TEST(Workload, CoresRoundRobin)
{
    SyntheticWorkload w(tinyParams());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(w.next().core, static_cast<CoreId>(i % 4));
}

TEST(Workload, InstructionsAreReadOnly)
{
    SyntheticWorkload w(tinyParams());
    for (int i = 0; i < 20000; ++i) {
        const MemAccess a = w.next();
        if (a.instruction) {
            EXPECT_FALSE(a.write);
        }
    }
}

TEST(Workload, InstructionFractionRespected)
{
    auto p = tinyParams();
    p.instructionFraction = 0.3;
    SyntheticWorkload w(p);
    int instr = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (w.next().instruction)
            ++instr;
    EXPECT_NEAR(instr / double(n), 0.3, 0.02);
}

TEST(Workload, WriteFractionRespected)
{
    auto p = tinyParams();
    p.instructionFraction = 0.0;
    p.writeFraction = 0.25;
    SyntheticWorkload w(p);
    int writes = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (w.next().write)
            ++writes;
    EXPECT_NEAR(writes / double(n), 0.25, 0.02);
}

TEST(Workload, PrivateRegionsAreDisjointPerCore)
{
    auto p = tinyParams();
    p.instructionFraction = 0.0;
    p.sharedDataFraction = 0.0;
    SyntheticWorkload w(p);
    std::map<CoreId, std::set<BlockAddr>> touched;
    for (int i = 0; i < 40000; ++i) {
        const MemAccess a = w.next();
        touched[a.core].insert(a.addr);
    }
    for (const auto &[c1, s1] : touched) {
        for (const auto &[c2, s2] : touched) {
            if (c1 == c2)
                continue;
            for (BlockAddr addr : s1) {
                ASSERT_FALSE(s2.count(addr))
                    << "cores " << c1 << "/" << c2 << " share " << addr;
            }
        }
    }
}

TEST(Workload, SharedRegionIsSharedAcrossCores)
{
    auto p = tinyParams();
    p.instructionFraction = 0.0;
    p.sharedDataFraction = 1.0;
    p.sharedBlocks = 32;
    SyntheticWorkload w(p);
    std::map<CoreId, std::set<BlockAddr>> touched;
    for (int i = 0; i < 20000; ++i) {
        const MemAccess a = w.next();
        touched[a.core].insert(a.addr);
    }
    // With a tiny hot shared region every core touches the same blocks.
    const auto &ref = touched.begin()->second;
    for (const auto &[core, s] : touched)
        EXPECT_EQ(s, ref) << "core " << core;
}

TEST(Workload, FootprintBoundHolds)
{
    auto p = tinyParams();
    SyntheticWorkload w(p);
    std::set<BlockAddr> distinct;
    for (int i = 0; i < 200000; ++i)
        distinct.insert(w.next().addr);
    EXPECT_LE(distinct.size(), w.distinctBlocks());
}

// --- presets -----------------------------------------------------------------

class PaperPreset : public testing::TestWithParam<PaperWorkload>
{};

TEST_P(PaperPreset, ValidForBothConfigs)
{
    for (bool private_l2 : {false, true}) {
        const auto p = paperWorkloadParams(GetParam(), private_l2);
        EXPECT_FALSE(p.name.empty());
        EXPECT_EQ(p.numCores, 16u);
        EXPECT_GE(p.codeBlocks, 1u);
        EXPECT_GE(p.sharedBlocks, 1u);
        EXPECT_GE(p.privateBlocksPerCore, 1u);
        EXPECT_GE(p.instructionFraction, 0.0);
        EXPECT_LE(p.instructionFraction, 1.0);
        EXPECT_GE(p.writeFraction, 0.0);
        EXPECT_LE(p.writeFraction, 1.0);
        // Generator must construct and run.
        SyntheticWorkload w(p);
        for (int i = 0; i < 1000; ++i)
            w.next();
    }
}

TEST_P(PaperPreset, PrivateL2FootprintsScaleUp)
{
    const auto shared = paperWorkloadParams(GetParam(), false);
    const auto priv = paperWorkloadParams(GetParam(), true);
    EXPECT_GT(priv.privateBlocksPerCore, shared.privateBlocksPerCore);
    EXPECT_GT(priv.sharedBlocks, shared.sharedBlocks);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PaperPreset, testing::ValuesIn(allPaperWorkloads()),
    [](const auto &info) { return paperWorkloadName(info.param); });

TEST(PaperPresets, NinePresetsWithDistinctNames)
{
    std::set<std::string> names;
    for (PaperWorkload w : allPaperWorkloads())
        names.insert(paperWorkloadName(w));
    EXPECT_EQ(names.size(), 9u);
}

TEST(PaperPresets, OceanIsOverwhelminglyPrivate)
{
    // §5.2: ocean has nearly 100% unique private blocks.
    const auto p = paperWorkloadParams(PaperWorkload::SciOcean, true);
    EXPECT_LT(p.instructionFraction + p.sharedDataFraction, 0.10);
    EXPECT_GT(p.privateBlocksPerCore, 16384u); // exceeds the 1MB L2
}

TEST(PaperPresets, WebIsDominatedBySharing)
{
    const auto p = paperWorkloadParams(PaperWorkload::WebApache, false);
    EXPECT_GT(p.instructionFraction, 0.3);
    EXPECT_GT(p.sharedDataFraction, 0.5);
}

} // namespace
} // namespace cdir
