/**
 * @file
 * Shared machinery of the golden-trace regression suite: the fixed
 * replay configurations (Shared-L2 and Private-L2), the pinned-row
 * type, the committed tables (tests/golden_trace_values.inc), and the
 * measurement routine. Used by golden_trace_test.cc (exact pins and
 * table regeneration), kernel_identity_test.cc (the same pins must
 * reproduce under the scalar and kernel probe paths at any --jobs), and
 * the property and cost-model suites (the same replay configuration).
 */

#ifndef CDIR_TESTS_GOLDEN_TRACE_UTIL_HH
#define CDIR_TESTS_GOLDEN_TRACE_UTIL_HH

#include <cstdint>
#include <string>

#include "sim/cmp_system.hh"
#include "workload/trace.hh"

namespace cdir::test {

/** The organizations pinned, in the organization table's (sorted) order. */
inline const char *const kGoldenOrganizations[] = {
    "Cuckoo", "DuplicateTag", "Elbow", "InCache",
    "Skewed", "Sparse",       "Tagless",
};

/** The committed fixture traces (generation: tests/data/README.md). */
inline const char *const kGoldenTraces[] = {
    "oltp_like.trace",
    "ocean_like.ctr",
    "mixed.ctr",
};

/**
 * Fixed replay configurations: a tiny 4-core CMP with deliberately
 * *under*-provisioned directories so the fixtures exercise the conflict
 * paths and the pinned forced-eviction/invalidation counters are
 * non-trivial.
 *
 *  - Shared-L2: 32-set 2-way L1s (batch_access_test's geometry), 8-set
 *    slices (1/4x for the Cuckoo sizing).
 *  - Private-L2: 64-set 4-way unified L2s (1024 aggregate frames — the
 *    committed traces were recorded at Shared-L2 footprints, so the
 *    tracked caches must stay small for the fixtures to stress the
 *    directory), 16-set slices (1/4x again).
 */
inline CmpConfig
goldenReplayConfig(const std::string &organization, CmpConfigKind kind)
{
    CmpConfig cfg;
    cfg.kind = kind;
    cfg.numCores = 4;
    cfg.numSlices = 4;
    if (kind == CmpConfigKind::SharedL2) {
        cfg.privateCache = CacheConfig{32, 2};
        cfg.directory.sets = 8;
    } else {
        cfg.privateCache = CacheConfig{64, 4};
        cfg.directory.sets = 16;
    }
    cfg.directory.organization = organization;
    cfg.directory.ways =
        (organization == "Sparse" || organization == "InCache") ? 8 : 4;
    cfg.directory.trackedCacheAssoc = cfg.privateCache.assoc;
    cfg.directory.taglessBucketBits = 64;
    return cfg;
}

/** One pinned measurement: trace x organization -> exact counters. */
struct GoldenRow
{
    const char *trace;
    const char *organization;
    std::uint64_t insertions;
    std::uint64_t dirHits;
    std::uint64_t forcedEvictions;
    std::uint64_t sharerRemovals;
    std::uint64_t validEntries;
    std::uint64_t cacheMisses;
    std::uint64_t sharingInvalidations;
    std::uint64_t forcedInvalidations;
};

// Defines kGolden (Shared-L2) and kGoldenPrivateL2.
#include "golden_trace_values.inc"

/**
 * Replay one committed fixture through @p organization on the fixed
 * @p kind CMP and return the measured counters (trace/organization
 * fields left null).
 */
inline GoldenRow
measureGolden(const std::string &trace, const std::string &organization,
              CmpConfigKind kind = CmpConfigKind::SharedL2)
{
    const std::string path =
        std::string(CDIR_TEST_DATA_DIR) + "/" + trace;
    CmpSystem system(goldenReplayConfig(organization, kind));
    const auto reader = makeTraceReader(
        path, TraceReadOptions{system.config().numCores, true});
    system.run(*reader, ~std::uint64_t{0});

    const DirectoryStats dir = system.aggregateDirectoryStats();
    std::uint64_t valid = 0;
    for (std::size_t s = 0; s < system.numSlices(); ++s)
        valid += system.slice(s).validEntries();

    return GoldenRow{nullptr,
                     nullptr,
                     dir.insertions,
                     dir.hits,
                     dir.forcedEvictions,
                     dir.sharerRemovals,
                     valid,
                     system.stats().cacheMisses,
                     system.stats().sharingInvalidations,
                     system.stats().forcedInvalidations};
}

} // namespace cdir::test

#endif // CDIR_TESTS_GOLDEN_TRACE_UTIL_HH
