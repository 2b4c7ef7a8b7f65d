/**
 * @file
 * Sharded intra-experiment parallelism: the determinism contract.
 *
 * CmpSystem::setShards partitions the directory slices across parallel
 * execution lanes; because every block address maps to exactly one
 * slice, slices share no state and the sharded driver must be
 * *bit-identical* to the serial one — same per-slice statistics, same
 * cache state, same merged experiment metrics, at any shard count and
 * any batch window. This suite pins that contract:
 *
 *  - whole-system runs at shards {1, 2, 4} vs a serial baseline for
 *    every registered organization, synthetic and trace-driven,
 *    compared slice by slice;
 *  - ExperimentResult equality (exact doubles included) through
 *    ExperimentOptions::shards, batch windows 1 and 16;
 *  - the golden-trace tables (tests/golden_trace_values.inc) must
 *    reproduce under sharded replay — both the Shared-L2 and the
 *    Private-L2 pins;
 *  - setShards edge cases (clamping to the slice count, re-sharding an
 *    existing system between runs).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "directory/registry.hh"
#include "golden_trace_util.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace cdir {
namespace {

using test::goldenReplayConfig;
using test::kGolden;
using test::kGoldenPrivateL2;
using test::measureGolden;

/** Small synthetic profile that misses and conflicts on the tiny CMP. */
WorkloadParams
stressWorkload(std::uint64_t seed = 7)
{
    WorkloadParams wl;
    wl.name = "shard-stress";
    wl.numCores = 4;
    wl.seed = seed;
    wl.codeBlocks = 96;
    wl.sharedBlocks = 384;
    wl.privateBlocksPerCore = 192;
    wl.writeFraction = 0.3;
    return wl;
}

/** Per-slice and system-level equality, field by field. */
void
expectSystemsIdentical(CmpSystem &a, CmpSystem &b,
                       const std::string &label)
{
    ASSERT_EQ(a.numSlices(), b.numSlices()) << label;
    for (std::size_t s = 0; s < a.numSlices(); ++s) {
        const DirectoryStats &da = a.slice(s).stats();
        const DirectoryStats &db = b.slice(s).stats();
        const std::string at = label + " slice " + std::to_string(s);
        EXPECT_EQ(da.lookups, db.lookups) << at;
        EXPECT_EQ(da.hits, db.hits) << at;
        EXPECT_EQ(da.insertions, db.insertions) << at;
        EXPECT_EQ(da.sharerAdds, db.sharerAdds) << at;
        EXPECT_EQ(da.writeUpgrades, db.writeUpgrades) << at;
        EXPECT_EQ(da.sharerRemovals, db.sharerRemovals) << at;
        EXPECT_EQ(da.entryFrees, db.entryFrees) << at;
        EXPECT_EQ(da.forcedEvictions, db.forcedEvictions) << at;
        EXPECT_EQ(da.forcedBlockInvalidations,
                  db.forcedBlockInvalidations)
            << at;
        EXPECT_EQ(da.insertFailures, db.insertFailures) << at;
        EXPECT_EQ(da.insertionAttempts.count(),
                  db.insertionAttempts.count())
            << at;
        EXPECT_EQ(da.insertionAttempts.sum(), db.insertionAttempts.sum())
            << at;
        for (std::size_t v = 0; v <= da.attemptHistogram.maxValue(); ++v)
            EXPECT_EQ(da.attemptHistogram.at(v),
                      db.attemptHistogram.at(v))
                << at << " bucket " << v;
        EXPECT_EQ(a.slice(s).validEntries(), b.slice(s).validEntries())
            << at;
    }
    const CmpStats &sa = a.stats();
    const CmpStats &sb = b.stats();
    EXPECT_EQ(sa.accesses, sb.accesses) << label;
    EXPECT_EQ(sa.cacheHits, sb.cacheHits) << label;
    EXPECT_EQ(sa.cacheMisses, sb.cacheMisses) << label;
    EXPECT_EQ(sa.writeUpgrades, sb.writeUpgrades) << label;
    EXPECT_EQ(sa.cacheEvictions, sb.cacheEvictions) << label;
    EXPECT_EQ(sa.sharingInvalidations, sb.sharingInvalidations) << label;
    EXPECT_EQ(sa.forcedInvalidations, sb.forcedInvalidations) << label;
    EXPECT_EQ(sa.directoryOccupancy.count(),
              sb.directoryOccupancy.count())
        << label;
    EXPECT_EQ(sa.directoryOccupancy.mean(), sb.directoryOccupancy.mean())
        << label;
    // Final cache contents must agree too (invalidations landed on the
    // same blocks).
    ASSERT_EQ(a.numCaches(), b.numCaches()) << label;
    for (std::size_t c = 0; c < a.numCaches(); ++c) {
        EXPECT_EQ(a.cache(c).residentAddresses(),
                  b.cache(c).residentAddresses())
            << label << " cache " << c;
    }
}

class ShardedOrganization : public testing::TestWithParam<std::string>
{
};

TEST_P(ShardedOrganization, SyntheticRunBitIdenticalAtAnyShardCount)
{
    for (const std::size_t window : {std::size_t{1}, std::size_t{16}}) {
        CmpConfig cfg =
            goldenReplayConfig(GetParam(), CmpConfigKind::SharedL2);
        cfg.batchWindow = window;

        CmpSystem serial(cfg);
        SyntheticSource serial_gen(stressWorkload());
        serial.run(serial_gen, 20000, 500);

        for (const unsigned shards : {1u, 2u, 4u}) {
            CmpSystem sharded(cfg);
            sharded.setShards(shards);
            EXPECT_EQ(sharded.shards(), shards);
            SyntheticSource gen(stressWorkload());
            sharded.run(gen, 20000, 500);
            expectSystemsIdentical(
                serial, sharded,
                GetParam() + " window " + std::to_string(window) +
                    " shards " + std::to_string(shards));
        }
    }
}

TEST_P(ShardedOrganization, TraceRunBitIdenticalAtAnyShardCount)
{
    const std::string path =
        std::string(CDIR_TEST_DATA_DIR) + "/mixed.ctr";
    CmpConfig cfg =
        goldenReplayConfig(GetParam(), CmpConfigKind::SharedL2);

    CmpSystem serial(cfg);
    {
        const auto reader = makeTraceReader(
            path, TraceReadOptions{cfg.numCores, true});
        serial.run(*reader, ~std::uint64_t{0}, 200);
    }
    for (const unsigned shards : {2u, 4u}) {
        CmpSystem sharded(cfg);
        sharded.setShards(shards);
        const auto reader = makeTraceReader(
            path, TraceReadOptions{cfg.numCores, true});
        sharded.run(*reader, ~std::uint64_t{0}, 200);
        expectSystemsIdentical(serial, sharded,
                               GetParam() + " trace shards " +
                                   std::to_string(shards));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrganizations, ShardedOrganization,
    testing::ValuesIn(DirectoryRegistry::instance().names()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// --- ExperimentResult equality through ExperimentOptions::shards -------------

void
expectResultsIdentical(const ExperimentResult &a,
                       const ExperimentResult &b,
                       const std::string &label)
{
    EXPECT_EQ(a.workload, b.workload) << label;
    EXPECT_EQ(a.organization, b.organization) << label;
    // Exact floating-point equality on purpose: the sharded driver must
    // execute the identical arithmetic, not a reassociated variant.
    EXPECT_EQ(a.avgInsertionAttempts, b.avgInsertionAttempts) << label;
    EXPECT_EQ(a.forcedInvalidationRate, b.forcedInvalidationRate)
        << label;
    EXPECT_EQ(a.avgOccupancy, b.avgOccupancy) << label;
    EXPECT_EQ(a.directoryCapacity, b.directoryCapacity) << label;
    EXPECT_EQ(a.directory.lookups, b.directory.lookups) << label;
    EXPECT_EQ(a.directory.hits, b.directory.hits) << label;
    EXPECT_EQ(a.directory.insertions, b.directory.insertions) << label;
    EXPECT_EQ(a.directory.forcedEvictions, b.directory.forcedEvictions)
        << label;
    EXPECT_EQ(a.directory.forcedBlockInvalidations,
              b.directory.forcedBlockInvalidations)
        << label;
    EXPECT_EQ(a.directory.insertFailures, b.directory.insertFailures)
        << label;
    EXPECT_EQ(a.system.accesses, b.system.accesses) << label;
    EXPECT_EQ(a.system.cacheMisses, b.system.cacheMisses) << label;
    EXPECT_EQ(a.system.sharingInvalidations,
              b.system.sharingInvalidations)
        << label;
    EXPECT_EQ(a.system.forcedInvalidations, b.system.forcedInvalidations)
        << label;
    for (std::size_t v = 0; v <= a.attemptHistogram.maxValue(); ++v)
        EXPECT_EQ(a.attemptHistogram.at(v), b.attemptHistogram.at(v))
            << label << " bucket " << v;
}

TEST(ShardedExperiment, SyntheticResultsIdenticalForEveryOrganization)
{
    ExperimentOptions opts;
    opts.warmupAccesses = 8000;
    opts.measureAccesses = 12000;
    opts.occupancySampleEvery = 400;

    for (const std::string &org :
         DirectoryRegistry::instance().names()) {
        const CmpConfig cfg =
            goldenReplayConfig(org, CmpConfigKind::SharedL2);
        ExperimentOptions serial = opts;
        serial.shards = 1;
        ExperimentOptions sharded = opts;
        sharded.shards = 4;
        expectResultsIdentical(
            runExperiment(cfg, stressWorkload(), serial),
            runExperiment(cfg, stressWorkload(), sharded),
            org + " synthetic");
    }
}

TEST(ShardedExperiment, TraceResultsIdenticalForEveryOrganization)
{
    WorkloadParams wl;
    wl.name = "mixed";
    wl.numCores = 4;
    wl.tracePath = std::string(CDIR_TEST_DATA_DIR) + "/mixed.ctr";

    ExperimentOptions opts;
    opts.warmupAccesses = 1000;
    opts.measureAccesses = 4000;
    opts.occupancySampleEvery = 200;

    for (const std::string &org :
         DirectoryRegistry::instance().names()) {
        const CmpConfig cfg =
            goldenReplayConfig(org, CmpConfigKind::SharedL2);
        ExperimentOptions serial = opts;
        serial.shards = 1;
        ExperimentOptions sharded = opts;
        sharded.shards = 3; // deliberately not a divisor of 4 slices
        const ExperimentResult a = runExperiment(cfg, wl, serial);
        const ExperimentResult b = runExperiment(cfg, wl, sharded);
        ASSERT_GT(a.system.accesses, 0u) << org;
        expectResultsIdentical(a, b, org + " trace");
    }
}

// --- the golden pins must reproduce under sharded replay ---------------------

TEST(ShardedGoldenTrace, SharedL2TableReproducesAtFourShards)
{
    for (const auto &expected : kGolden) {
        const auto got =
            measureGolden(expected.trace, expected.organization,
                          CmpConfigKind::SharedL2, 4);
        const std::string label = std::string(expected.trace) + " x " +
                                  expected.organization + " shards=4";
        EXPECT_EQ(got.insertions, expected.insertions) << label;
        EXPECT_EQ(got.dirHits, expected.dirHits) << label;
        EXPECT_EQ(got.forcedEvictions, expected.forcedEvictions)
            << label;
        EXPECT_EQ(got.sharerRemovals, expected.sharerRemovals) << label;
        EXPECT_EQ(got.validEntries, expected.validEntries) << label;
        EXPECT_EQ(got.cacheMisses, expected.cacheMisses) << label;
        EXPECT_EQ(got.sharingInvalidations,
                  expected.sharingInvalidations)
            << label;
        EXPECT_EQ(got.forcedInvalidations, expected.forcedInvalidations)
            << label;
    }
}

TEST(ShardedGoldenTrace, PrivateL2TableReproducesAtFourShards)
{
    for (const auto &expected : kGoldenPrivateL2) {
        const auto got =
            measureGolden(expected.trace, expected.organization,
                          CmpConfigKind::PrivateL2, 4);
        const std::string label = std::string(expected.trace) + " x " +
                                  expected.organization + " shards=4";
        EXPECT_EQ(got.insertions, expected.insertions) << label;
        EXPECT_EQ(got.forcedEvictions, expected.forcedEvictions)
            << label;
        EXPECT_EQ(got.validEntries, expected.validEntries) << label;
        EXPECT_EQ(got.cacheMisses, expected.cacheMisses) << label;
        EXPECT_EQ(got.forcedInvalidations, expected.forcedInvalidations)
            << label;
    }
}

// --- setShards edge cases ----------------------------------------------------

TEST(ShardEngine, ShardCountClampsToSliceCount)
{
    CmpSystem system(
        goldenReplayConfig("Cuckoo", CmpConfigKind::SharedL2));
    system.setShards(64); // only 4 slices exist
    EXPECT_EQ(system.shards(), 4u);
    system.setShards(0); // 0 means serial
    EXPECT_EQ(system.shards(), 1u);
}

// --- shard-aware directoryCoversCaches ---------------------------------------

TEST(ShardEngine, CoverageCheckAgreesAtEveryShardCount)
{
    // The invariant walk fans out across the shard lanes; the verdict
    // must match the serial check for every organization (including
    // the imprecise Tagless filters, whose probe may over-approximate
    // sharers but must still cover every resident block).
    for (const std::string &org :
         DirectoryRegistry::instance().names()) {
        const CmpConfig cfg =
            goldenReplayConfig(org, CmpConfigKind::SharedL2);

        CmpSystem serial(cfg);
        SyntheticSource serial_gen(stressWorkload(17));
        serial.run(serial_gen, 12000);
        const bool expected = serial.directoryCoversCaches();

        CmpSystem sharded(cfg);
        sharded.setShards(3);
        SyntheticSource gen(stressWorkload(17));
        sharded.run(gen, 12000);
        EXPECT_EQ(sharded.directoryCoversCaches(), expected) << org;
        EXPECT_TRUE(expected) << org;
    }
}

TEST(ShardEngine, MisSizedMirroringConfigurationIsRejected)
{
    // Regression: a very large system whose slice count exceeds the
    // private cache's sets used to slip past a release-build assert and
    // construct cache-mirroring slices covering *zero* sets. The
    // geometry is now rejected at construction.
    for (const char *org : {"DuplicateTag", "Tagless"}) {
        CmpConfig cfg;
        cfg.kind = CmpConfigKind::SharedL2;
        cfg.numCores = 64;
        cfg.numSlices = 64;                  // > the 32 cache sets below
        cfg.privateCache = CacheConfig{32, 2};
        cfg.directory.organization = org;
        cfg.directory.trackedCacheAssoc = cfg.privateCache.assoc;
        EXPECT_THROW(CmpSystem{cfg}, std::invalid_argument) << org;
    }
    // Non-mirroring organizations are not bound by the cache geometry.
    CmpConfig ok;
    ok.kind = CmpConfigKind::SharedL2;
    ok.numCores = 64;
    ok.numSlices = 64;
    ok.privateCache = CacheConfig{32, 2};
    ok.directory.organization = "Cuckoo";
    ok.directory.sets = 16;
    EXPECT_NO_THROW(CmpSystem{ok});
}

TEST(ShardEngine, NonPowerOfTwoSliceCountIsRejected)
{
    CmpConfig cfg = goldenReplayConfig("Cuckoo", CmpConfigKind::SharedL2);
    cfg.numSlices = 3;
    EXPECT_THROW(CmpSystem{cfg}, std::invalid_argument);
}

// --- topology-aware lane mapping ---------------------------------------------

TEST(ShardEngine, DefaultMappingIsContiguousAndBalanced)
{
    CmpSystem system(
        goldenReplayConfig("Cuckoo", CmpConfigKind::SharedL2));
    const std::size_t slices = system.numSlices();
    system.setShards(3);
    // floor(s * K / n): lanes are contiguous slice groups, monotone in
    // the slice index, never empty, and balanced within one slice.
    std::vector<std::size_t> perLane(system.shards(), 0);
    std::size_t prev = 0;
    for (std::size_t s = 0; s < slices; ++s) {
        const std::size_t lane = system.shardOfSlice(s);
        ASSERT_LT(lane, system.shards());
        EXPECT_GE(lane, prev) << "slice " << s;
        prev = lane;
        ++perLane[lane];
    }
    for (std::size_t lane = 0; lane < perLane.size(); ++lane) {
        EXPECT_GE(perLane[lane], slices / system.shards()) << lane;
        EXPECT_LE(perLane[lane], slices / system.shards() + 1) << lane;
    }
}

TEST(ShardEngine, CustomMappingKeepsBitIdentity)
{
    const CmpConfig cfg =
        goldenReplayConfig("Cuckoo", CmpConfigKind::SharedL2);

    CmpSystem serial(cfg);
    SyntheticSource serial_gen(stressWorkload(23));
    serial.run(serial_gen, 16000, 500);

    // Strided (anti-contiguous) placement — the worst case for the
    // default policy — must still replay bit-identically, because the
    // serial apply phase follows first-touch order, not lane order.
    CmpSystem mapped(cfg);
    mapped.setShards(2);
    mapped.setShardMapping({1, 0, 1, 0});
    EXPECT_EQ(mapped.shardOfSlice(0), 1u);
    EXPECT_EQ(mapped.shardOfSlice(3), 0u);
    SyntheticSource gen(stressWorkload(23));
    mapped.run(gen, 16000, 500);
    expectSystemsIdentical(serial, mapped, "custom mapping");
}

TEST(ShardEngine, InvalidMappingIsRejected)
{
    CmpSystem system(
        goldenReplayConfig("Cuckoo", CmpConfigKind::SharedL2));
    system.setShards(2);
    // Wrong size (4 slices exist).
    EXPECT_THROW(system.setShardMapping({0, 1}), std::invalid_argument);
    // Lane index beyond the shard count.
    EXPECT_THROW(system.setShardMapping({0, 0, 0, 2}),
                 std::invalid_argument);
    // The rejected calls left the previous mapping intact.
    for (std::size_t s = 0; s < system.numSlices(); ++s)
        EXPECT_LT(system.shardOfSlice(s), system.shards());
}

TEST(ShardEngine, SetShardsRestoresDefaultMapping)
{
    CmpSystem system(
        goldenReplayConfig("Cuckoo", CmpConfigKind::SharedL2));
    system.setShards(2);
    system.setShardMapping({1, 0, 1, 0});
    system.setShards(2); // same count, but the default map comes back
    for (std::size_t s = 0; s < system.numSlices(); ++s)
        EXPECT_EQ(system.shardOfSlice(s),
                  s * 2 / system.numSlices());
}

// --- 256-core differential stress --------------------------------------------

/** 256-core, 256-slice CMP with one small private cache per core. */
CmpConfig
thousandCoreConfig(const char *organization, SharerFormat format)
{
    CmpConfig cfg;
    cfg.kind = CmpConfigKind::PrivateL2;
    cfg.numCores = 256;
    cfg.numSlices = 256;
    cfg.privateCache = CacheConfig{64, 2}; // 128 frames per core
    cfg.directory.organization = organization;
    cfg.directory.format = format;
    cfg.directory.ways = 4;
    cfg.directory.sets = 32; // 128 entries per slice (1x)
    return cfg;
}

WorkloadParams
thousandCoreWorkload()
{
    WorkloadParams wl;
    wl.name = "256-core-stress";
    wl.numCores = 256;
    wl.seed = 90210;
    wl.codeBlocks = 4096;
    wl.sharedBlocks = 16384;
    wl.privateBlocksPerCore = 96;
    wl.writeFraction = 0.3;
    return wl;
}

TEST(ShardEngine, TwoFiftySixSliceBitIdentityAcrossShardCounts)
{
    // The tentpole contract at CMP scale: a 256-slice system running
    // the memory-lean formats stays bit-identical at shards {1, 2, 4}.
    const struct
    {
        const char *organization;
        SharerFormat format;
    } kConfigs[] = {
        {"Cuckoo", SharerFormat::Compressed},
        {"Sparse", SharerFormat::Hierarchical},
    };
    for (const auto &cc : kConfigs) {
        const CmpConfig cfg =
            thousandCoreConfig(cc.organization, cc.format);
        CmpSystem serial(cfg);
        SyntheticSource serial_gen(thousandCoreWorkload());
        serial.run(serial_gen, 80000, 2000);

        for (const unsigned shards : {2u, 4u}) {
            CmpSystem sharded(cfg);
            sharded.setShards(shards);
            SyntheticSource gen(thousandCoreWorkload());
            sharded.run(gen, 80000, 2000);
            expectSystemsIdentical(serial, sharded,
                                   std::string(cc.organization) +
                                       " 256-slice shards " +
                                       std::to_string(shards));
        }
    }
}

TEST(ShardEngine, LeanFormatsMatchFullVectorSystemStats)
{
    // Compressed and Hierarchical are precise representations whose
    // modeled storage does not alter protocol decisions, so a whole
    // 256-core system run must produce identical statistics to the
    // full-vector baseline — the system-level half of the lean-vs-full
    // equivalence audit.
    const CmpConfig base =
        thousandCoreConfig("Cuckoo", SharerFormat::FullVector);
    CmpSystem full(base);
    SyntheticSource full_gen(thousandCoreWorkload());
    full.run(full_gen, 60000, 2000);

    for (const SharerFormat format :
         {SharerFormat::Compressed, SharerFormat::Hierarchical}) {
        CmpConfig cfg = base;
        cfg.directory.format = format;
        CmpSystem lean(cfg);
        SyntheticSource gen(thousandCoreWorkload());
        lean.run(gen, 60000, 2000);
        expectSystemsIdentical(full, lean,
                               "lean format vs full vector");
    }
}

TEST(ShardEngine, EstimatedMemoryBytesIsShardInvariant)
{
    // The footprint estimate is part of the serialized campaign record,
    // so it must be as deterministic as every other counter.
    const CmpConfig cfg =
        thousandCoreConfig("Cuckoo", SharerFormat::Compressed);
    CmpSystem serial(cfg);
    SyntheticSource serial_gen(thousandCoreWorkload());
    serial.run(serial_gen, 40000);
    const std::size_t expected = serial.estimatedMemoryBytes();
    EXPECT_GT(expected, 0u);

    CmpSystem sharded(cfg);
    sharded.setShards(4);
    SyntheticSource gen(thousandCoreWorkload());
    sharded.run(gen, 40000);
    EXPECT_EQ(sharded.estimatedMemoryBytes(), expected);
}

TEST(ShardEngine, ReShardingBetweenRunsKeepsDeterminism)
{
    const CmpConfig cfg =
        goldenReplayConfig("Skewed", CmpConfigKind::SharedL2);

    CmpSystem serial(cfg);
    SyntheticSource serial_gen(stressWorkload(31));
    serial.run(serial_gen, 16000);

    // Same stream, but the shard count changes mid-way: the contract
    // holds across reconfiguration because per-window semantics never
    // depend on the lane count.
    CmpSystem resharded(cfg);
    SyntheticSource gen(stressWorkload(31));
    resharded.setShards(2);
    resharded.run(gen, 8000);
    resharded.setShards(4);
    resharded.run(gen, 4000);
    resharded.setShards(1);
    resharded.run(gen, 4000);
    expectSystemsIdentical(serial, resharded, "resharded");
}

} // namespace
} // namespace cdir
