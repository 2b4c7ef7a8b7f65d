/**
 * @file
 * Bit-identity suite for the word-parallel probe kernels.
 *
 * The directory hot path runs only the branchless kernels of
 * common/bit_util.hh. This suite keeps branchy early-exit reference
 * implementations as test oracles and pins the kernels at three levels:
 *
 *  1. kernel level — randomized findTag/findVacant agreement with the
 *     oracles and match-mask semantics over adversarial tag patterns
 *     with vacant (kVacantTag) slots mixed in;
 *  2. system level — the committed golden-trace tables reproduce
 *     exactly at every tested --jobs setting (sweep-pool parallelism);
 *  3. slice level — DuplicateTag's chunk-occupancy skip agrees with a
 *     shadow holder map driven by the public protocol alone.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bit_util.hh"
#include "common/rng.hh"
#include "directory/directory.hh"
#include "sim/sweep.hh"

#include "dir_test_util.hh"
#include "golden_trace_util.hh"

namespace cdir {
namespace {

using test::GoldenRow;
using test::kGolden;
using test::kGoldenOrganizations;
using test::kGoldenTraces;
using test::measureGolden;

/**
 * Oracle: index of the first slot in [0, n) whose tag equals @p needle,
 * or @p n if absent. Early-exit branchy loop.
 */
std::size_t
findTagScalar(const Tag *tags, std::size_t n, Tag needle)
{
    for (std::size_t i = 0; i < n; ++i)
        if (tags[i] == needle)
            return i;
    return n;
}

/** Oracle for findVacant: first slot in [0, n) holding kVacantTag, or n. */
std::size_t
findVacantScalar(const Tag *tags, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (tags[i] == kVacantTag)
            return i;
    return n;
}

// --- kernel level ------------------------------------------------------------

/**
 * Random candidate run of width @p n: ~half the slots vacant, tags
 * drawn from a tiny alphabet so duplicate tags (first-match tie-breaks)
 * and occupied-but-different slots are all common.
 */
std::vector<Tag>
randomRun(Rng &rng, std::size_t n)
{
    std::vector<Tag> run(n);
    for (Tag &tag : run)
        tag = rng.below(2) != 0 ? rng.below(8) : kVacantTag;
    return run;
}

/** A slot-shaped run element: the kernels read its `tag` member. */
struct PaddedSlot
{
    Tag tag;
    std::uint64_t payload;
};

TEST(KernelIdentity, FindTagAgreesWithScalarReference)
{
    Rng rng(0xf00d);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t n = 1 + rng.below(kKernelWidth);
        const std::vector<Tag> run = randomRun(rng, n);
        const Tag needle = rng.below(8);

        const std::size_t want = findTagScalar(run.data(), n, needle);
        ASSERT_EQ(findTag(run.data(), n, needle), want)
            << "width " << n << " iter " << iter;
        // Slot runs reduce exactly like bare tag runs.
        std::vector<PaddedSlot> slots(n);
        for (std::size_t i = 0; i < n; ++i)
            slots[i] = PaddedSlot{run[i], ~std::uint64_t{0}};
        ASSERT_EQ(findTag(slots.data(), n, needle), want)
            << "width " << n << " iter " << iter;
    }
}

TEST(KernelIdentity, FindVacantAgreesWithScalarReference)
{
    Rng rng(0xbeef);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t n = 1 + rng.below(kKernelWidth);
        const std::vector<Tag> run = randomRun(rng, n);

        ASSERT_EQ(findVacant(run.data(), n), findVacantScalar(run.data(), n))
            << "width " << n << " iter " << iter;
    }
}

TEST(KernelIdentity, MatchMaskBitsAreExactlyTheMatches)
{
    Rng rng(0xcafe);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t n = 1 + rng.below(kKernelWidth);
        const std::vector<Tag> run = randomRun(rng, n);
        const Tag needle = rng.below(8);

        const std::uint64_t mask = tagMatchMask(run.data(), n, needle);
        const std::uint64_t vacant = vacancyMask(run.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ((mask >> i) & 1u, run[i] == needle ? 1u : 0u)
                << "bit " << i << " iter " << iter;
            ASSERT_EQ((vacant >> i) & 1u, run[i] == kVacantTag ? 1u : 0u)
                << "bit " << i << " iter " << iter;
        }
        // No bits past the run width.
        if (n < 64) {
            ASSERT_EQ(mask >> n, 0u);
            ASSERT_EQ(vacant >> n, 0u);
        }
    }
}

TEST(KernelIdentity, VacantSlotNeverMatchesAProbedTag)
{
    // A vacant slot keeps whatever payload it had, but its tag word is
    // the sentinel: no real tag (anything but kVacantTag) can hit it.
    Rng rng(0x5a5a);
    std::vector<Tag> vacant(kKernelWidth, kVacantTag);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t n = 1 + rng.below(kKernelWidth);
        Tag needle = rng.below(2) != 0 ? rng.next() : rng.below(8);
        if (needle == kVacantTag)
            needle = 0;
        ASSERT_EQ(tagMatchMask(vacant.data(), n, needle), 0u);
        ASSERT_EQ(findTag(vacant.data(), n, needle), n);

        // Mixed runs: every match bit is an occupied slot.
        const std::vector<Tag> run = randomRun(rng, n);
        const std::uint64_t mask = tagMatchMask(run.data(), n, needle);
        ASSERT_EQ(mask & vacancyMask(run.data(), n), 0u)
            << "width " << n << " iter " << iter;
    }
}

// --- system level: golden tables x jobs --------------------------------------

void
expectRowEqual(const GoldenRow &got, const GoldenRow &want)
{
    EXPECT_EQ(got.insertions, want.insertions);
    EXPECT_EQ(got.dirHits, want.dirHits);
    EXPECT_EQ(got.forcedEvictions, want.forcedEvictions);
    EXPECT_EQ(got.sharerRemovals, want.sharerRemovals);
    EXPECT_EQ(got.validEntries, want.validEntries);
    EXPECT_EQ(got.cacheMisses, want.cacheMisses);
    EXPECT_EQ(got.sharingInvalidations, want.sharingInvalidations);
    EXPECT_EQ(got.forcedInvalidations, want.forcedInvalidations);
}

/** The committed Shared-L2 pin for @p trace x @p organization. */
const GoldenRow &
pinnedRow(const char *trace, const char *organization)
{
    for (const GoldenRow &row : kGolden)
        if (std::string(row.trace) == trace &&
            std::string(row.organization) == organization)
            return row;
    ADD_FAILURE() << "no pinned row for " << trace << " x "
                  << organization;
    static GoldenRow missing{};
    return missing;
}

/**
 * Replay the full trace x organization grid on a @p jobs-thread sweep
 * pool and pin every cell against the committed Shared-L2 table.
 */
void
pinGrid(unsigned jobs)
{
    SCOPED_TRACE("jobs=" + std::to_string(jobs));

    struct Cell
    {
        const char *trace;
        const char *org;
    };
    std::vector<Cell> cells;
    for (const char *trace : kGoldenTraces)
        for (const char *org : kGoldenOrganizations)
            cells.push_back({trace, org});

    const SweepRunner runner(SweepOptions{jobs, ""});
    const std::vector<GoldenRow> rows = runner.map<GoldenRow>(
        cells.size(), [&](std::size_t i) {
            return measureGolden(cells[i].trace, cells[i].org,
                                 CmpConfigKind::SharedL2);
        });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(std::string(cells[i].trace) + " x " + cells[i].org);
        expectRowEqual(rows[i],
                       pinnedRow(cells[i].trace, cells[i].org));
    }
}

TEST(KernelIdentity, GoldenTablesReproduceAtEveryJobsSetting)
{
    for (const unsigned jobs : {1u, 2u})
        pinGrid(jobs);
}

// --- DuplicateTag chunk-occupancy skip ---------------------------------------

/** Shadow of which caches hold each tag, kept from the public protocol. */
using HolderMap = std::map<Tag, std::set<CacheId>>;

/** The shadow holders of @p tag as a sharer bitset of @p caches bits. */
DynamicBitset
shadowBits(const HolderMap &shadow, Tag tag, std::size_t caches)
{
    DynamicBitset bits(caches);
    if (const auto it = shadow.find(tag); it != shadow.end())
        for (const CacheId c : it->second)
            bits.set(c);
    return bits;
}

/**
 * Direct-slice stress aimed at DuplicateTag's per-set chunk-occupancy
 * summary: the wide compare and the existence probe skip 64-frame
 * chunks with no valid frames, which must be outcome-invariant. A
 * shadow holder map follows the protocol — a read adds the requester,
 * a write leaves {writer}, removeSharer clears the cache, a forced
 * eviction clears its target — and every probe must equal it. The
 * stream concentrates on a few dense sets and leaves the rest sparse
 * or empty, and keeps removing sharers so regions empty out and
 * refill — the shapes where a stale summary counter would surface as a
 * missed (or phantom) holder.
 */
TEST(KernelIdentity, DuplicateTagOccupancySkipIsOutcomeInvariant)
{
    // 16 and 24 tracked caches x assoc 4: one exactly-full 64-frame
    // chunk per set, then a 96-frame set spanning a partial chunk.
    for (const unsigned num_caches : {16u, 24u}) {
        SCOPED_TRACE("caches=" + std::to_string(num_caches));
        DirectoryParams params;
        params.organization = "DuplicateTag";
        params.numCaches = num_caches;
        params.sets = 64;
        params.trackedCacheAssoc = 4;
        const auto dir = makeDirectory(params);

        HolderMap shadow;
        Rng rng(0x5eedULL + num_caches);
        std::vector<Tag> live;
        for (int iter = 0; iter < 20000; ++iter) {
            const std::uint64_t op = rng.below(100);
            if (op < 55 || live.empty()) {
                // Mostly 4 dense sets; the other 60 stay sparse so the
                // skip actually fires.
                const Tag set = rng.below(2) != 0 ? rng.below(4)
                                                  : rng.below(64);
                const Tag tag = set | (rng.below(16) << 6);
                const auto cache =
                    static_cast<CacheId>(rng.below(num_caches));
                const bool is_write = rng.below(4) == 0;
                std::set<CacheId> &holders = shadow[tag];
                const bool was_tracked = !holders.empty();
                DynamicBitset others = shadowBits(shadow, tag, num_caches);
                others.reset(cache);

                const DirAccessResult r =
                    test::accessDir(*dir, tag, cache, is_write);
                ASSERT_EQ(r.hit, was_tracked) << "iter " << iter;
                ASSERT_EQ(r.inserted, !was_tracked) << "iter " << iter;
                const bool invalidates = is_write && others.any();
                ASSERT_EQ(r.hadSharerInvalidations, invalidates)
                    << "iter " << iter;
                if (invalidates) {
                    ASSERT_TRUE(r.sharerInvalidations == others)
                        << "iter " << iter;
                }
                for (const EvictedEntry &e : r.forcedEvictions) {
                    ASSERT_EQ(e.targets.count(), 1u) << "iter " << iter;
                    ASSERT_TRUE(e.targets.test(cache)) << "iter " << iter;
                    ASSERT_EQ(shadow[e.tag].erase(cache), 1u)
                        << "iter " << iter;
                }
                if (is_write)
                    holders.clear();
                holders.insert(cache);
                live.push_back(tag);
            } else if (op < 85) {
                // Remove a sharer of a recently-touched tag; drains the
                // dense sets toward (and through) empty.
                const std::size_t at = rng.below(live.size());
                const Tag tag = live[at];
                const auto cache =
                    static_cast<CacheId>(rng.below(num_caches));
                dir->removeSharer(tag, cache);
                shadow[tag].erase(cache);
                live[at] = live.back();
                live.pop_back();
            } else {
                // Probe both forms: existence-only (the chunk-skipping
                // findTag walk) and with sharer collection.
                const Tag set = rng.below(64);
                const Tag tag = set | (rng.below(16) << 6);
                const DynamicBitset want =
                    shadowBits(shadow, tag, num_caches);
                DynamicBitset got(num_caches);
                ASSERT_EQ(dir->probe(tag), want.any()) << "iter " << iter;
                ASSERT_EQ(dir->probe(tag, &got), want.any())
                    << "iter " << iter;
                ASSERT_TRUE(got == want) << "iter " << iter;
            }
        }

        // Full-state agreement after the stream: every set's holder
        // sets, including the all-empty ones.
        std::size_t frames = 0;
        for (const auto &[tag, holders] : shadow)
            frames += holders.size();
        EXPECT_EQ(dir->validEntries(), frames);
        for (Tag set = 0; set < 64; ++set)
            for (Tag high = 0; high < 16; ++high) {
                const Tag tag = set | (high << 6);
                const DynamicBitset want =
                    shadowBits(shadow, tag, num_caches);
                DynamicBitset got(num_caches);
                ASSERT_EQ(dir->probe(tag), want.any())
                    << "set " << set << " high " << high;
                ASSERT_EQ(dir->probe(tag, &got), want.any())
                    << "set " << set << " high " << high;
                ASSERT_TRUE(got == want)
                    << "set " << set << " high " << high;
            }
    }
}

} // namespace
} // namespace cdir
