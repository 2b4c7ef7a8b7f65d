/**
 * @file
 * Unit tests for src/common: declared settings and the whole-string
 * number parsers, bit utilities, RNG, dynamic bitset, stats.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string_view>
#include <vector>

#include "common/bit_util.hh"
#include "common/bitset.hh"
#include "common/cli_flag.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "rng_test_util.hh"

namespace cdir {
namespace {

// --- declared settings (cli_flag) and number parsers ----------------------

TEST(CliNumbers, RealParsesWholeFiniteNumbersOnly)
{
    EXPECT_EQ(parseCliReal("0.5"), 0.5);
    EXPECT_EQ(parseCliReal("-2"), -2.0);
    EXPECT_EQ(parseCliReal("1e-3"), 1e-3);
    EXPECT_EQ(parseCliReal(".5"), 0.5);
    EXPECT_EQ(parseCliReal("150"), 150.0);
    for (const char *bad : {"nan", "NaN", "inf", "-inf", "infinity",
                            "1e400", "", "+0.5", " 0.5", "0.5 ", "0.5x",
                            "0x1p-2", "1,5", "abc"})
        EXPECT_FALSE(parseCliReal(bad).has_value()) << bad;
}

TEST(CliFlag, SetFlagLooksUpDeclaredNames)
{
    std::uint64_t count = 0;
    double real = 0.0;
    bool toggle = false;
    int choice = 0;
    const std::vector<CliFlag> flags = {
        countFlag("count", count, 1, "a count"),
        realFlag("real", real, "a real"),
        toggleFlag("toggle", toggle, "a toggle"),
        choiceFlag<int>("choice", choice, {{"one", 1}, {"two", 2}},
                        "a choice"),
    };
    EXPECT_EQ(flagNames(flags), "count=N, real=X, toggle, choice=one|two");

    bool ok = false;
    EXPECT_EQ(setFlag(flags, "count=5", ok), &flags[0]);
    EXPECT_TRUE(ok);
    EXPECT_EQ(count, 5u);
    EXPECT_EQ(setFlag(flags, "real=0.25", ok), &flags[1]);
    EXPECT_TRUE(ok);
    EXPECT_EQ(real, 0.25);
    EXPECT_EQ(setFlag(flags, "toggle", ok), &flags[2]);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(toggle);
    EXPECT_EQ(setFlag(flags, "choice=two", ok), &flags[3]);
    EXPECT_TRUE(ok);
    EXPECT_EQ(choice, 2);

    // A bad value names its flag; an undeclared name finds none.
    for (const char *bad : {"count=0", "count=-1", "count", "real=nan",
                            "real=", "toggle=1", "choice=three"}) {
        ok = true;
        EXPECT_NE(setFlag(flags, bad, ok), nullptr) << bad;
        EXPECT_FALSE(ok) << bad;
    }
    EXPECT_EQ(setFlag(flags, "counts=5", ok), nullptr);
    EXPECT_EQ(setFlag(flags, "", ok), nullptr);
    EXPECT_EQ(count, 5u);
    EXPECT_EQ(real, 0.25);
}

TEST(CliFlag, SplitListKeepsEmptyItems)
{
    using Items = std::vector<std::string_view>;
    EXPECT_EQ(splitList("", ','), Items{""});
    EXPECT_EQ(splitList("a", ','), Items{"a"});
    EXPECT_EQ(splitList("a,,b", ','), (Items{"a", "", "b"}));
    EXPECT_EQ(splitList("fleet:", ':'), (Items{"fleet", ""}));
    EXPECT_EQ(splitList(":x:", ':'), (Items{"", "x", ""}));
}

// --- bit_util ------------------------------------------------------------

TEST(BitUtil, IsPowerOfTwoBasics)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 63));
    EXPECT_FALSE(isPowerOfTwo((1ull << 63) + 1));
}

TEST(BitUtil, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(~0ull), 63u);
}

TEST(BitUtil, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(ceilLog2(1 << 20), 20u);
    EXPECT_EQ(ceilLog2((1 << 20) + 1), 21u);
}

TEST(BitUtil, BitsToName)
{
    EXPECT_EQ(bitsToName(1), 1u);
    EXPECT_EQ(bitsToName(2), 1u);
    EXPECT_EQ(bitsToName(3), 2u);
    EXPECT_EQ(bitsToName(16), 4u);
    EXPECT_EQ(bitsToName(17), 5u);
    EXPECT_EQ(bitsToName(1024), 10u);
}

TEST(BitUtil, LowMask)
{
    EXPECT_EQ(lowMask(0), 0ull);
    EXPECT_EQ(lowMask(1), 1ull);
    EXPECT_EQ(lowMask(8), 0xffull);
    EXPECT_EQ(lowMask(64), ~0ull);
}

TEST(BitUtil, ExtractBits)
{
    EXPECT_EQ(extractBits(0xdeadbeefull, 0, 8), 0xefull);
    EXPECT_EQ(extractBits(0xdeadbeefull, 8, 8), 0xbeull);
    EXPECT_EQ(extractBits(0xdeadbeefull, 16, 16), 0xdeadull);
    EXPECT_EQ(extractBits(~0ull, 60, 4), 0xfull);
}

TEST(BitUtil, RotateLeftWithinWidth)
{
    EXPECT_EQ(rotateLeft(0b0001, 1, 4), 0b0010ull);
    EXPECT_EQ(rotateLeft(0b1000, 1, 4), 0b0001ull);
    EXPECT_EQ(rotateLeft(0b1010, 2, 4), 0b1010ull);
    EXPECT_EQ(rotateLeft(0xff, 4, 8), 0xffull);
    EXPECT_EQ(rotateLeft(0x1, 0, 8), 0x1ull);
    // Amount wraps around the width.
    EXPECT_EQ(rotateLeft(0x3, 8, 8), 0x3ull);
}

// --- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.below(37);
        EXPECT_LT(v, 37u);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        if (rng.chance(0.25))
            ++hits;
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, EmittingHelperProducesRequestedWord)
{
    Rng words(3);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t raw = words.next();
        Rng rng = test::rngEmitting(raw);
        ASSERT_EQ(rng.next(), raw);
    }
}

/** ceil(p * 2^53) clamped to [0, 2^53]: the integer form of chance(p). */
std::uint64_t
referenceThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

TEST(Rng, ChanceThresholdMatchesUniformCompare)
{
    // uniform() is x * 2^-53 for the integer x = next() >> 11, and
    // scaling by a power of two is exact, so uniform() < p holds iff
    // x < ceil(p * 2^53). Probe the boundaries (0, 1, the smallest
    // denormal, 0.5, the DB2 write fraction and its neighbours) and
    // random p, each against random raw words plus the words that
    // land exactly on, just below and just above the threshold. The
    // precomputed ChanceThreshold must equal that integer form.
    const double denormal = std::numeric_limits<double>::denorm_min();
    std::vector<double> probabilities = {
        0.0, 1.0, denormal, 0.5, 0.22, std::nextafter(0.22, 0.0),
        std::nextafter(0.22, 1.0)};
    Rng picks(41);
    for (int i = 0; i < 200; ++i)
        probabilities.push_back(picks.uniform());

    Rng words(43);
    for (const double p : probabilities) {
        const std::uint64_t threshold = referenceThreshold(p);
        ASSERT_EQ(ChanceThreshold(p).bound, threshold) << "p=" << p;
        std::vector<std::uint64_t> raws;
        for (int i = 0; i < 500; ++i)
            raws.push_back(words.next());
        for (const std::uint64_t x : {threshold - 1, threshold, threshold + 1})
            if (x < (std::uint64_t{1} << 53))
                raws.push_back((x << 11) | (words.next() & 0x7ff));
        for (const std::uint64_t raw : raws) {
            Rng rng = test::rngEmitting(raw);
            Rng same = rng;
            ASSERT_EQ(rng.chance(p), (raw >> 11) < threshold)
                << "p=" << p << " raw=" << raw;
            ASSERT_EQ(same.chance(ChanceThreshold(p)), (raw >> 11) < threshold)
                << "p=" << p << " raw=" << raw;
        }
    }
}

// --- DynamicBitset -----------------------------------------------------------

TEST(DynamicBitset, StartsEmpty)
{
    DynamicBitset bs(100);
    EXPECT_EQ(bs.size(), 100u);
    EXPECT_EQ(bs.count(), 0u);
    EXPECT_TRUE(bs.none());
    EXPECT_FALSE(bs.any());
}

TEST(DynamicBitset, SetResetTest)
{
    DynamicBitset bs(70);
    bs.set(0);
    bs.set(63);
    bs.set(64);
    bs.set(69);
    EXPECT_TRUE(bs.test(0));
    EXPECT_TRUE(bs.test(63));
    EXPECT_TRUE(bs.test(64));
    EXPECT_TRUE(bs.test(69));
    EXPECT_FALSE(bs.test(1));
    EXPECT_EQ(bs.count(), 4u);
    bs.reset(63);
    EXPECT_FALSE(bs.test(63));
    EXPECT_EQ(bs.count(), 3u);
}

TEST(DynamicBitset, ClearResetsEverything)
{
    DynamicBitset bs(130);
    for (std::size_t i = 0; i < 130; i += 3)
        bs.set(i);
    EXPECT_GT(bs.count(), 0u);
    bs.clear();
    EXPECT_EQ(bs.count(), 0u);
    EXPECT_TRUE(bs.none());
}

TEST(DynamicBitset, FindFirstAndNext)
{
    DynamicBitset bs(200);
    bs.set(5);
    bs.set(64);
    bs.set(199);
    EXPECT_EQ(bs.findFirst(), 5u);
    EXPECT_EQ(bs.findNext(5), 64u);
    EXPECT_EQ(bs.findNext(64), 199u);
    EXPECT_EQ(bs.findNext(199), 200u);
}

TEST(DynamicBitset, FindFirstOnEmpty)
{
    DynamicBitset bs(64);
    EXPECT_EQ(bs.findFirst(), 64u);
}

TEST(DynamicBitset, IterationVisitsAllSetBits)
{
    DynamicBitset bs(300);
    std::set<std::size_t> expect;
    for (std::size_t i = 7; i < 300; i += 13) {
        bs.set(i);
        expect.insert(i);
    }
    std::set<std::size_t> got;
    for (std::size_t i = bs.findFirst(); i < bs.size(); i = bs.findNext(i))
        got.insert(i);
    EXPECT_EQ(got, expect);
}

TEST(DynamicBitset, UnionAndIntersection)
{
    DynamicBitset a(100), b(100);
    a.set(1);
    a.set(50);
    b.set(50);
    b.set(99);
    DynamicBitset u = a;
    u |= b;
    EXPECT_EQ(u.count(), 3u);
    EXPECT_TRUE(u.test(1) && u.test(50) && u.test(99));
    DynamicBitset i = a;
    i &= b;
    EXPECT_EQ(i.count(), 1u);
    EXPECT_TRUE(i.test(50));
}

TEST(DynamicBitset, EqualityIncludesSize)
{
    DynamicBitset a(10), b(10), c(11);
    a.set(3);
    b.set(3);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a == c);
    b.set(4);
    EXPECT_FALSE(a == b);
}

TEST(DynamicBitset, ZeroSizedIsSane)
{
    DynamicBitset bs(0);
    EXPECT_EQ(bs.size(), 0u);
    EXPECT_TRUE(bs.none());
    EXPECT_EQ(bs.findFirst(), 0u);
}

// --- stats -------------------------------------------------------------------

TEST(RunningMean, EmptyIsZero)
{
    RunningMean m;
    EXPECT_EQ(m.count(), 0u);
    EXPECT_EQ(m.mean(), 0.0);
}

TEST(RunningMean, MeanOfSamples)
{
    RunningMean m;
    m.add(1.0);
    m.add(2.0);
    m.add(3.0);
    EXPECT_EQ(m.count(), 3u);
    EXPECT_DOUBLE_EQ(m.mean(), 2.0);
    EXPECT_DOUBLE_EQ(m.sum(), 6.0);
}

TEST(RunningMean, AddWeightedMatchesRepeatedAdd)
{
    RunningMean a, b;
    for (int i = 0; i < 10; ++i)
        a.add(4.0);
    b.addWeighted(4.0, 10);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(RunningMean, ResetDiscards)
{
    RunningMean m;
    m.add(5);
    m.reset();
    EXPECT_EQ(m.count(), 0u);
    EXPECT_EQ(m.mean(), 0.0);
}

TEST(Histogram, RecordsBuckets)
{
    Histogram h(32);
    h.add(0);
    h.add(1);
    h.add(1);
    h.add(32);
    EXPECT_EQ(h.at(0), 1u);
    EXPECT_EQ(h.at(1), 2u);
    EXPECT_EQ(h.at(32), 1u);
    EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, ClampsOverflowToTopBucket)
{
    Histogram h(32);
    h.add(33);
    h.add(1000);
    EXPECT_EQ(h.at(32), 2u);
}

TEST(Histogram, FractionsSumToOne)
{
    Histogram h(8);
    for (std::uint64_t v = 0; v <= 8; ++v)
        h.add(v);
    double total = 0.0;
    for (std::size_t v = 0; v <= 8; ++v)
        total += h.fraction(v);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, MeanMatchesSamples)
{
    Histogram h(32);
    h.add(2);
    h.add(4);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, MergeAccumulates)
{
    Histogram a(32), b(32);
    a.add(1);
    b.add(1);
    b.add(5);
    a.merge(b);
    EXPECT_EQ(a.at(1), 2u);
    EXPECT_EQ(a.at(5), 1u);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Histogram, MergeClampsWiderSource)
{
    Histogram narrow(4), wide(32);
    wide.add(20);
    narrow.merge(wide);
    EXPECT_EQ(narrow.at(4), 1u);
}

TEST(Histogram, ResetClears)
{
    Histogram h(8);
    h.add(3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.at(3), 0u);
}

} // namespace
} // namespace cdir
