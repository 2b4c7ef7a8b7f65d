/**
 * @file
 * Bit-identity suite for the word-parallel probe kernels.
 *
 * Every hot-path kernel in common/bit_util.hh has a branchy scalar
 * reference twin, selected at runtime by CDIR_FORCE_SCALAR (or
 * setForceScalarKernels). The SoA layout work is purely a performance
 * change, so the two paths must be *bit-identical* in observable
 * behaviour. This suite pins that at three levels:
 *
 *  1. kernel level — randomized findTag/findVacant agreement and
 *     match-mask semantics over adversarial valid/tag patterns;
 *  2. system level — the committed golden-trace tables reproduce
 *     exactly under both paths, at every tested --jobs setting
 *     (sweep-pool parallelism);
 *  3. stress level — randomized differential-stress replays of every
 *     registered organization yield identical counters on both paths.
 *
 * CI runs this binary twice: once normally and once with
 * CDIR_FORCE_SCALAR=1, so the environment seeding of the switch is
 * exercised as well as the in-process override.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/bit_util.hh"
#include "common/rng.hh"
#include "directory/registry.hh"
#include "sim/cmp_system.hh"
#include "sim/sweep.hh"
#include "workload/workload.hh"

#include "dir_test_util.hh"
#include "golden_trace_util.hh"

namespace cdir {
namespace {

using test::GoldenRow;
using test::goldenReplayConfig;
using test::kGolden;
using test::kGoldenOrganizations;
using test::kGoldenPrivateL2;
using test::kGoldenTraces;
using test::measureGolden;

/** RAII: route kernels through the chosen path, restore on scope exit. */
class ScalarPathGuard
{
  public:
    explicit ScalarPathGuard(bool force) : saved(forceScalarKernels())
    {
        setForceScalarKernels(force);
    }
    ~ScalarPathGuard() { setForceScalarKernels(saved); }

  private:
    bool saved;
};

// --- kernel level ------------------------------------------------------------

/**
 * Random candidate run of width @p n: ~half the slots invalid, tags
 * drawn from a tiny alphabet so duplicate tags (first-match tie-breaks)
 * and valid-but-different slots are all common.
 */
struct CandidateRun
{
    std::vector<Tag> tags;
    std::vector<std::uint8_t> valids;
};

CandidateRun
randomRun(Rng &rng, std::size_t n)
{
    CandidateRun run;
    run.tags.resize(n);
    run.valids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        run.tags[i] = rng.below(8);
        run.valids[i] = rng.below(2) != 0 ? 1 : 0;
    }
    return run;
}

TEST(KernelIdentity, FindTagAgreesWithScalarReference)
{
    Rng rng(0xf00d);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t n = 1 + rng.below(kKernelWidth);
        const CandidateRun run = randomRun(rng, n);
        const Tag needle = rng.below(8);

        std::size_t kernel, scalar;
        {
            ScalarPathGuard g(false);
            kernel = findTag(run.tags.data(), run.valids.data(), n, needle);
        }
        {
            ScalarPathGuard g(true);
            scalar = findTag(run.tags.data(), run.valids.data(), n, needle);
        }
        ASSERT_EQ(kernel, scalar) << "width " << n << " iter " << iter;
        ASSERT_EQ(scalar,
                  findTagScalar(run.tags.data(), run.valids.data(), n,
                                needle));
    }
}

TEST(KernelIdentity, FindVacantAgreesWithScalarReference)
{
    Rng rng(0xbeef);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t n = 1 + rng.below(kKernelWidth);
        const CandidateRun run = randomRun(rng, n);

        std::size_t kernel, scalar;
        {
            ScalarPathGuard g(false);
            kernel = findVacant(run.valids.data(), n);
        }
        {
            ScalarPathGuard g(true);
            scalar = findVacant(run.valids.data(), n);
        }
        ASSERT_EQ(kernel, scalar) << "width " << n << " iter " << iter;
        ASSERT_EQ(scalar, findVacantScalar(run.valids.data(), n));
    }
}

TEST(KernelIdentity, MatchMaskBitsAreExactlyTheMatches)
{
    Rng rng(0xcafe);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t n = 1 + rng.below(kKernelWidth);
        const CandidateRun run = randomRun(rng, n);
        const Tag needle = rng.below(8);

        const std::uint64_t mask =
            tagMatchMask(run.tags.data(), run.valids.data(), n, needle);
        const std::uint64_t vacant = vacancyMask(run.valids.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const bool match =
                run.valids[i] != 0 && run.tags[i] == needle;
            ASSERT_EQ((mask >> i) & 1u, match ? 1u : 0u)
                << "bit " << i << " iter " << iter;
            ASSERT_EQ((vacant >> i) & 1u, run.valids[i] == 0 ? 1u : 0u)
                << "bit " << i << " iter " << iter;
        }
        // No bits past the run width.
        if (n < 64) {
            ASSERT_EQ(mask >> n, 0u);
            ASSERT_EQ(vacant >> n, 0u);
        }
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

/** The committed pin for @p trace x @p organization. */
const GoldenRow &
pinnedRow(const char *trace, const char *organization, CmpConfigKind kind)
{
    const GoldenRow *first = std::begin(kGolden);
    const GoldenRow *last = std::end(kGolden);
    if (kind == CmpConfigKind::PrivateL2) {
        first = std::begin(kGoldenPrivateL2);
        last = std::end(kGoldenPrivateL2);
    }
    for (const GoldenRow *row = first; row != last; ++row)
        if (std::string(row->trace) == trace &&
            std::string(row->organization) == organization)
            return *row;
    ADD_FAILURE() << "no pinned row for " << trace << " x "
                  << organization;
    static GoldenRow missing{};
    return missing;
}

/**
 * Replay the full trace x organization grid on a @p jobs-thread sweep
 * pool, under the scalar or kernel path, and pin every cell against the
 * committed Shared-L2 table.
 */
void
pinGridUnderPath(bool force_scalar, unsigned jobs)
{
    SCOPED_TRACE(std::string(force_scalar ? "scalar" : "kernel") +
                 " path, jobs=" + std::to_string(jobs));
    ScalarPathGuard guard(force_scalar);

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
                       pinnedRow(cells[i].trace, cells[i].org,
                                 CmpConfigKind::SharedL2));
    }
}

TEST(KernelIdentity, GoldenTablesReproduceAtEveryJobsSetting)
{
    for (const bool force_scalar : {false, true})
        for (const unsigned jobs : {1u, 2u})
            pinGridUnderPath(force_scalar, jobs);
}

TEST(KernelIdentity, PrivateL2TableReproducesUnderScalarPath)
{
    // The Private-L2 pins exercise the wider 4-way tracked-assoc
    // DuplicateTag regions and the 8-way sparse probes; one serial
    // scalar sweep over them guards those kernel widths.
    ScalarPathGuard guard(true);
    for (const char *trace : kGoldenTraces)
        for (const char *org : kGoldenOrganizations) {
            SCOPED_TRACE(std::string(trace) + " x " + org);
            const GoldenRow got =
                measureGolden(trace, org, CmpConfigKind::PrivateL2);
            expectRowEqual(
                got, pinnedRow(trace, org, CmpConfigKind::PrivateL2));
        }
}

// --- DuplicateTag chunk-occupancy skip ---------------------------------------

/**
 * Direct-slice differential stress aimed at DuplicateTag's per-set
 * chunk-occupancy summary: the kernel wide-compare and the existence
 * probe skip 64-frame chunks with no valid frames, which must be
 * outcome-invariant. The stream concentrates on a few dense sets and
 * leaves the rest sparse or empty, and keeps removing sharers so
 * regions empty out and refill — the shapes where a stale summary
 * counter would surface as a missed (or phantom) holder.
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
        const auto kernel_dir = makeDirectory(params);
        const auto scalar_dir = makeDirectory(params);

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
                DirAccessResult k, s;
                {
                    ScalarPathGuard g(false);
                    k = test::accessDir(*kernel_dir, tag, cache, is_write);
                }
                {
                    ScalarPathGuard g(true);
                    s = test::accessDir(*scalar_dir, tag, cache, is_write);
                }
                ASSERT_EQ(k.hit, s.hit) << "iter " << iter;
                ASSERT_EQ(k.inserted, s.inserted) << "iter " << iter;
                ASSERT_EQ(k.hadSharerInvalidations,
                          s.hadSharerInvalidations)
                    << "iter " << iter;
                ASSERT_EQ(k.sharerInvalidations, s.sharerInvalidations)
                    << "iter " << iter;
                live.push_back(tag);
            } else if (op < 85) {
                // Remove a sharer of a recently-touched tag; drains the
                // dense sets toward (and through) empty.
                const std::size_t at = rng.below(live.size());
                const Tag tag = live[at];
                const auto cache =
                    static_cast<CacheId>(rng.below(num_caches));
                {
                    ScalarPathGuard g(false);
                    kernel_dir->removeSharer(tag, cache);
                }
                {
                    ScalarPathGuard g(true);
                    scalar_dir->removeSharer(tag, cache);
                }
                live[at] = live.back();
                live.pop_back();
            } else {
                // Probe both forms: existence-only (the chunk-skipping
                // findTag walk) and with sharer collection.
                const Tag set = rng.below(64);
                const Tag tag = set | (rng.below(16) << 6);
                bool ke, se;
                DynamicBitset kb(num_caches), sb(num_caches);
                bool ks, ss;
                {
                    ScalarPathGuard g(false);
                    ke = kernel_dir->probe(tag);
                    ks = kernel_dir->probe(tag, &kb);
                }
                {
                    ScalarPathGuard g(true);
                    se = scalar_dir->probe(tag);
                    ss = scalar_dir->probe(tag, &sb);
                }
                ASSERT_EQ(ke, se) << "iter " << iter;
                ASSERT_EQ(ks, ss) << "iter " << iter;
                ASSERT_TRUE(kb == sb) << "iter " << iter;
            }
        }

        // Full-state agreement after the stream: every counter and
        // every set's holder sets, including the all-empty ones.
        const DirectoryStats &k = kernel_dir->stats();
        const DirectoryStats &s = scalar_dir->stats();
        EXPECT_EQ(k.lookups, s.lookups);
        EXPECT_EQ(k.hits, s.hits);
        EXPECT_EQ(k.insertions, s.insertions);
        EXPECT_EQ(k.sharerAdds, s.sharerAdds);
        EXPECT_EQ(k.writeUpgrades, s.writeUpgrades);
        EXPECT_EQ(k.sharerRemovals, s.sharerRemovals);
        EXPECT_EQ(k.forcedEvictions, s.forcedEvictions);
        EXPECT_EQ(k.forcedBlockInvalidations, s.forcedBlockInvalidations);
        EXPECT_EQ(kernel_dir->validEntries(), scalar_dir->validEntries());
        for (Tag set = 0; set < 64; ++set)
            for (Tag high = 0; high < 16; ++high) {
                const Tag tag = set | (high << 6);
                DynamicBitset kb(num_caches), sb(num_caches);
                ScalarPathGuard g(false);
                const bool kf = kernel_dir->probe(tag, &kb);
                setForceScalarKernels(true);
                const bool sf = scalar_dir->probe(tag, &sb);
                ASSERT_EQ(kf, sf) << "set " << set << " high " << high;
                ASSERT_TRUE(kb == sb)
                    << "set " << set << " high " << high;
            }
    }
}

// --- stress level: differential replays across all organizations -------------

/** Flat scalar-counter snapshot of one stress replay. */
struct StressCounters
{
    std::uint64_t accesses, cacheHits, cacheMisses, writeUpgrades;
    std::uint64_t cacheEvictions, sharingInvalidations,
        forcedInvalidations;
    std::uint64_t lookups, dirHits, insertions, sharerAdds,
        sharerRemovals;
    std::uint64_t entryFrees, forcedEvictions, forcedBlockInvalidations,
        insertFailures;

    bool
    operator==(const StressCounters &o) const = default;
};

/** Randomized sharing profile (mirrors property_test's stress drawing). */
WorkloadParams
stressProfile(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    WorkloadParams wl;
    wl.name = "identity-stress-" + std::to_string(seed);
    wl.numCores = 4;
    wl.seed = seed;
    wl.codeBlocks = 32 + rng.below(256);
    wl.sharedBlocks = 64 + rng.below(1024);
    wl.privateBlocksPerCore = 32 + rng.below(512);
    wl.instructionFraction = 0.1 + 0.4 * rng.uniform();
    wl.sharedDataFraction = 0.2 + 0.5 * rng.uniform();
    wl.writeFraction = 0.05 + 0.4 * rng.uniform();
    wl.codeTheta = rng.uniform();
    wl.sharedTheta = rng.uniform();
    wl.privateTheta = rng.uniform();
    return wl;
}

StressCounters
replayStress(const std::string &organization, const WorkloadParams &wl)
{
    CmpSystem system(
        goldenReplayConfig(organization, CmpConfigKind::SharedL2));
    SyntheticSource gen(wl);
    system.run(gen, 20000);

    const CmpStats sys = system.stats();
    const DirectoryStats dir = system.aggregateDirectoryStats();
    return StressCounters{sys.accesses,
                          sys.cacheHits,
                          sys.cacheMisses,
                          sys.writeUpgrades,
                          sys.cacheEvictions,
                          sys.sharingInvalidations,
                          sys.forcedInvalidations,
                          dir.lookups,
                          dir.hits,
                          dir.insertions,
                          dir.sharerAdds,
                          dir.sharerRemovals,
                          dir.entryFrees,
                          dir.forcedEvictions,
                          dir.forcedBlockInvalidations,
                          dir.insertFailures};
}


TEST(KernelIdentity, DifferentialStressAgreesAcrossPaths)
{
    const DirectoryRegistry &registry = DirectoryRegistry::instance();
    for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{17}}) {
        const WorkloadParams wl = stressProfile(seed);
        for (const std::string &org : registry.names()) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " " + org);
            StressCounters kernel, scalar;
            {
                ScalarPathGuard g(false);
                kernel = replayStress(org, wl);
            }
            {
                ScalarPathGuard g(true);
                scalar = replayStress(org, wl);
            }
            EXPECT_TRUE(kernel == scalar)
                << "kernel/scalar counter divergence";
        }
    }
}

} // namespace
} // namespace cdir
