/**
 * @file
 * Cost-model and latency-histogram coverage:
 *
 *  - LatencyHistogram bucket geometry round-trips, nearest-rank
 *    percentile pins, exact merge (partitioned partials reproduce the
 *    single accumulator bit for bit), prefix subtraction, and the
 *    unallocated == all-zero equality contract;
 *  - FixedLatencyCostModel / MeshCostModel latency arithmetic against
 *    hand-built outcomes, mesh geometry, and the factory;
 *  - experiment integration: the untimed path allocates no histogram
 *    and a timed run leaves every behavioural counter untouched;
 *    latency percentiles are bit-identical across --jobs;
 *    interval-window histograms sum exactly to the whole-run one;
 *  - golden pins: exact p50/p99 for a committed fixture trace under
 *    both models on the fixed golden replay CMP.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "model/cost_model.hh"
#include "model/latency_histogram.hh"
#include "sim/sweep.hh"
#include "workload/trace.hh"

#include "golden_trace_util.hh"

namespace cdir {
namespace {

// --- histogram geometry ------------------------------------------------------

TEST(LatencyHistogram, BucketGeometryRoundTrips)
{
    // Every bucket's lower bound maps back to that bucket...
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
        ASSERT_EQ(LatencyHistogram::bucketOf(
                      LatencyHistogram::bucketLowerBound(b)),
                  b)
            << "bucket " << b;
    // ...and bucket lower bounds are strictly increasing.
    for (std::size_t b = 1; b < LatencyHistogram::kBuckets; ++b)
        ASSERT_LT(LatencyHistogram::bucketLowerBound(b - 1),
                  LatencyHistogram::bucketLowerBound(b))
            << "bucket " << b;
    // A value never precedes its bucket's lower bound.
    for (std::uint64_t v : {0ull, 1ull, 63ull, 64ull, 65ull, 100ull,
                            1000ull, 123456ull, 1ull << 20,
                            0xFFFFFFFFull})
        ASSERT_LE(LatencyHistogram::bucketLowerBound(
                      LatencyHistogram::bucketOf(v)),
                  v)
            << "value " << v;
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    // Below kLinearMax each value owns its bucket: recorded samples
    // come back exactly.
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < LatencyHistogram::kLinearMax; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), LatencyHistogram::kLinearMax);
    for (std::uint64_t v = 0; v < LatencyHistogram::kLinearMax; ++v)
        EXPECT_EQ(h.bucketAt(static_cast<std::size_t>(v)), 1u);
    EXPECT_EQ(h.maxLatency(), LatencyHistogram::kLinearMax - 1);
}

TEST(LatencyHistogram, TopBucketClampsHugeValues)
{
    LatencyHistogram h;
    h.add(~std::uint64_t{0});
    h.add(std::uint64_t{1} << 40);
    EXPECT_EQ(h.bucketAt(LatencyHistogram::kBuckets - 1), 2u);
    // The raw sum is unclamped even though the buckets saturate.
    EXPECT_EQ(h.totalCycles(),
              ~std::uint64_t{0} + (std::uint64_t{1} << 40));
}

TEST(LatencyHistogram, NearestRankPercentiles)
{
    // 100 samples of value i+1 (1..100): pN is the N-th smallest.
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(500), 50u);
    // Above kLinearMax values quantise to their bucket lower bound:
    // octave 6 has 2-cycle granularity, so the 99th sample (99)
    // reports 98 and the 100th (100) reports 100.
    EXPECT_EQ(h.percentile(990), 98u);
    EXPECT_EQ(h.percentile(999), 100u);
    EXPECT_EQ(h.percentile(1000), 100u);
    EXPECT_EQ(h.percentile(1), 1u);

    // Empty histogram: all percentiles 0.
    const LatencyHistogram empty;
    EXPECT_EQ(empty.percentile(500), 0u);
    EXPECT_TRUE(empty.empty());
}

TEST(LatencyHistogram, PercentileReportsBucketLowerBound)
{
    // Above the linear range values quantise to ~3%: the reported
    // percentile is the lower bound of the sample's bucket.
    LatencyHistogram h;
    h.add(1000);
    const std::uint64_t expect = LatencyHistogram::bucketLowerBound(
        LatencyHistogram::bucketOf(1000));
    EXPECT_EQ(h.percentile(500), expect);
    EXPECT_LE(expect, 1000u);
    EXPECT_GT(expect, 1000u - 1000u / 16);
}

// --- histogram merge/subtract ------------------------------------------------

/** Deterministic sample stream (LCG — no std randomness in tests). */
std::uint64_t
nextSample(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % 5000;
}

TEST(LatencyHistogram, PartitionedMergeIsBitIdentical)
{
    // One accumulator vs the same stream dealt across {2, 4} partials
    // and merged: identical buckets, counts, and percentiles.
    for (const std::size_t n_parts : {2u, 4u}) {
        LatencyHistogram whole;
        std::vector<LatencyHistogram> parts(n_parts);
        std::uint64_t state = 42;
        for (std::size_t i = 0; i < 10'000; ++i) {
            const std::uint64_t v = nextSample(state);
            whole.add(v);
            parts[i % n_parts].add(v);
        }
        LatencyHistogram merged;
        for (const LatencyHistogram &part : parts)
            merged.merge(part);
        EXPECT_TRUE(merged == whole) << n_parts << " parts";
        EXPECT_EQ(merged.percentile(500), whole.percentile(500));
        EXPECT_EQ(merged.percentile(990), whole.percentile(990));
        EXPECT_EQ(merged.percentile(999), whole.percentile(999));
        EXPECT_EQ(merged.totalCycles(), whole.totalCycles());
    }
}

TEST(LatencyHistogram, SubtractCutsSnapshotDeltas)
{
    // Cumulative snapshots subtract into window deltas, and the
    // windows merge back to the cumulative total.
    LatencyHistogram cumulative, before, window_sum;
    std::uint64_t state = 7;
    for (std::size_t w = 0; w < 5; ++w) {
        before = cumulative;
        for (std::size_t i = 0; i < 1000; ++i)
            cumulative.add(nextSample(state));
        LatencyHistogram window = cumulative;
        window.subtract(before);
        EXPECT_EQ(window.count(), 1000u);
        window_sum.merge(window);
    }
    EXPECT_TRUE(window_sum == cumulative);
}

TEST(LatencyHistogram, SubtractRejectsNonPrefix)
{
    LatencyHistogram a, b;
    a.add(10);
    b.add(20);
    b.add(30);
    EXPECT_THROW(a.subtract(b), std::invalid_argument);

    // Same count but different buckets is just as invalid.
    LatencyHistogram c, d;
    c.add(10);
    d.add(20);
    EXPECT_THROW(c.subtract(d), std::invalid_argument);
}

TEST(LatencyHistogram, UnallocatedEqualsAllocatedZero)
{
    LatencyHistogram unallocated;
    LatencyHistogram allocated;
    allocated.preallocate();
    EXPECT_TRUE(unallocated == allocated);
    EXPECT_TRUE(allocated == unallocated);

    allocated.add(3);
    EXPECT_FALSE(unallocated == allocated);

    // Merging an empty histogram is a no-op that allocates nothing.
    LatencyHistogram target;
    target.merge(unallocated);
    EXPECT_TRUE(target == unallocated);
}

// --- cost models -------------------------------------------------------------

/** Hand-build one outcome in a context bound to @p caches caches. */
struct OutcomeFixture
{
    DirAccessContext ctx;
    DirAccessOutcome *out = nullptr;

    explicit OutcomeFixture(std::size_t caches) : ctx(caches)
    {
        out = &ctx.beginOutcome();
    }
};

TEST(CostModelFactory, NamesAndErrors)
{
    const CmpConfig config =
        CmpConfig::paperConfig(CmpConfigKind::SharedL2, 4);
    EXPECT_EQ(costModelNames(),
              (std::vector<std::string>{"fixed", "mesh"}));
    EXPECT_TRUE(isCostModelName("fixed"));
    EXPECT_TRUE(isCostModelName("mesh"));
    EXPECT_FALSE(isCostModelName("warp-drive"));
    EXPECT_EQ(makeCostModel("fixed", config)->name(), "fixed");
    EXPECT_EQ(makeCostModel("mesh", config)->name(), "mesh");
    EXPECT_THROW(makeCostModel("warp-drive", config),
                 std::invalid_argument);
}

TEST(FixedLatencyCostModel, LatencyArithmetic)
{
    const CostModelParams p;
    const FixedLatencyCostModel model(p);
    const DirRequest req{0x1234, 0, true};

    // Plain hit: probe + forward.
    {
        OutcomeFixture f(8);
        f.out->hit = true;
        EXPECT_EQ(model.accessLatency(req, *f.out, f.ctx, 0),
                  p.directoryCycles + p.forwardCycles);
    }
    // Miss with a 3-attempt cuckoo chain: probe + 2 relocations +
    // off-chip fill.
    {
        OutcomeFixture f(8);
        f.out->inserted = true;
        f.out->attempts = 3;
        EXPECT_EQ(model.accessLatency(req, *f.out, f.ctx, 0),
                  p.directoryCycles + 2 * p.relocationCycles +
                      p.offChipCycles);
    }
    // Write hit with sharer invalidations plus one forced eviction:
    // both pay an invalidation round trip.
    {
        OutcomeFixture f(8);
        f.out->hit = true;
        f.out->hadSharerInvalidations = true;
        f.ctx.sharerTargets(*f.out).set(3);
        EvictedEntry &evicted = f.ctx.appendEviction(*f.out);
        evicted.targets.set(5);
        EXPECT_EQ(model.accessLatency(req, *f.out, f.ctx, 0),
                  p.directoryCycles + p.forwardCycles +
                      2 * p.invalidationCycles);
    }
}

TEST(MeshCostModel, GeometryFollowsTheConfig)
{
    CmpConfig config = CmpConfig::paperConfig(CmpConfigKind::SharedL2, 16);
    const MeshCostModel mesh16(config);
    EXPECT_EQ(mesh16.meshWidth(), 4u);
    EXPECT_EQ(mesh16.hops(0, 15), 6u);  // (0,0) -> (3,3)
    EXPECT_EQ(mesh16.hops(0, 0), 0u);
    EXPECT_EQ(mesh16.hops(5, 6), 1u);
    EXPECT_EQ(mesh16.hops(1, 4), 2u);   // (1,0) -> (0,1)
    // Slice interleaving wraps onto the 16 tiles.
    EXPECT_EQ(mesh16.tileOfSlice(0), 0u);
    EXPECT_EQ(mesh16.tileOfSlice(17), 1u);

    const MeshCostModel mesh4(
        CmpConfig::paperConfig(CmpConfigKind::SharedL2, 4));
    EXPECT_EQ(mesh4.meshWidth(), 2u);

    // Non-square core counts round the side up.
    CmpConfig five = CmpConfig::paperConfig(CmpConfigKind::SharedL2, 4);
    five.numCores = 5;
    EXPECT_EQ(MeshCostModel(five).meshWidth(), 3u);

    CmpConfig zero = config;
    zero.numCores = 0;
    EXPECT_THROW(MeshCostModel{zero}, std::invalid_argument);
}

TEST(MeshCostModel, DistanceAndFanOutShapeTheLatency)
{
    // 4-core Shared-L2 mesh (2x2): every core has 2 tracked caches
    // (instruction + data), so cache ids 0..7 map to tiles 0..3.
    const CmpConfig config =
        CmpConfig::paperConfig(CmpConfigKind::SharedL2, 4);
    ASSERT_EQ(config.cachesPerCore(), 2u);
    const CostModelParams p;
    const MeshCostModel model(config);
    const std::size_t caches = config.numCores * config.cachesPerCore();

    // Hit from the home tile itself: no hops.
    {
        OutcomeFixture f(caches);
        f.out->hit = true;
        const DirRequest local{0x1, /*cache=*/0, false};
        EXPECT_EQ(model.accessLatency(local, *f.out, f.ctx, 0),
                  p.directoryCycles + p.forwardCycles);
    }
    // Hit from the diagonal tile (tile 3, 2 hops on the 2x2 mesh):
    // request + response both pay the distance.
    {
        OutcomeFixture f(caches);
        f.out->hit = true;
        const DirRequest remote{0x1, /*cache=*/6, false}; // core 3
        EXPECT_EQ(model.accessLatency(remote, *f.out, f.ctx, 0),
                  p.directoryCycles + 2 * p.hopCycles * 2 +
                      p.forwardCycles);
    }
    // Write hit invalidating sharers on tiles 1 and 3 from home 0: the
    // critical path is the farthest (2 hops), not the sum.
    {
        OutcomeFixture f(caches);
        f.out->hit = true;
        f.out->hadSharerInvalidations = true;
        DynamicBitset &targets = f.ctx.sharerTargets(*f.out);
        targets.set(2); // core 1, tile 1: 1 hop from tile 0
        targets.set(7); // core 3, tile 3: 2 hops from tile 0
        const DirRequest local{0x1, /*cache=*/0, true};
        EXPECT_EQ(model.accessLatency(local, *f.out, f.ctx, 0),
                  p.directoryCycles + p.forwardCycles +
                      p.invalidationCycles + 2 * p.hopCycles * 2);
    }
    // The requester is excluded from *sharer* invalidations (the apply
    // phase never invalidates the requesting cache)...
    {
        OutcomeFixture f(caches);
        f.out->hit = true;
        f.out->hadSharerInvalidations = true;
        f.ctx.sharerTargets(*f.out).set(6); // the requester itself
        const DirRequest remote{0x1, /*cache=*/6, true};
        EXPECT_EQ(model.accessLatency(remote, *f.out, f.ctx, 0),
                  p.directoryCycles + 2 * p.hopCycles * 2 +
                      p.forwardCycles);
    }
    // ...but *is* a target of forced evictions (a different block).
    {
        OutcomeFixture f(caches);
        f.out->inserted = true;
        f.out->attempts = 1;
        EvictedEntry &evicted = f.ctx.appendEviction(*f.out);
        evicted.targets.set(0); // the requester's own cache, tile 0
        const DirRequest local{0x1, /*cache=*/0, false};
        EXPECT_EQ(model.accessLatency(local, *f.out, f.ctx, 0),
                  p.directoryCycles + p.offChipCycles +
                      p.invalidationCycles);
    }
}

// --- experiment integration --------------------------------------------------

/** 4-core grid cell used by the integration tests. */
CmpConfig
smallConfig()
{
    CmpConfig config = CmpConfig::paperConfig(CmpConfigKind::SharedL2, 4);
    config.privateCache = CacheConfig{64, 2};
    config.directory = cuckooSliceParams(4, 64);
    return config;
}

WorkloadParams
smallWorkload()
{
    WorkloadParams wl;
    wl.name = "wl";
    wl.numCores = 4;
    wl.seed = 11;
    wl.codeBlocks = 128;
    wl.sharedBlocks = 512;
    wl.privateBlocksPerCore = 256;
    return wl;
}

TEST(CostModelExperiment, UntimedRunAllocatesNoHistogram)
{
    ExperimentOptions opts;
    opts.warmupAccesses = 5000;
    opts.measureAccesses = 20000;
    opts.occupancySampleEvery = 1000;
    const ExperimentResult result =
        runExperiment(smallConfig(), smallWorkload(), opts);
    EXPECT_TRUE(result.system.latency.empty());
    EXPECT_EQ(result.costModel, "");
    EXPECT_EQ(result.latencyP50, 0u);
    EXPECT_EQ(result.latencyP99, 0u);
    EXPECT_EQ(result.latencyP999, 0u);
}

TEST(CostModelExperiment, TimingNeverChangesBehaviouralCounters)
{
    ExperimentOptions opts;
    opts.warmupAccesses = 5000;
    opts.measureAccesses = 20000;
    opts.occupancySampleEvery = 1000;
    const ExperimentResult untimed =
        runExperiment(smallConfig(), smallWorkload(), opts);
    for (const char *model : {"fixed", "mesh"}) {
        opts.costModel = model;
        const ExperimentResult timed =
            runExperiment(smallConfig(), smallWorkload(), opts);
        EXPECT_EQ(timed.costModel, model);
        // One sample per directory access, all percentiles populated.
        EXPECT_EQ(timed.system.latency.count(),
                  timed.directory.lookups);
        EXPECT_GT(timed.latencyP50, 0u);
        EXPECT_GE(timed.latencyP99, timed.latencyP50);
        EXPECT_GE(timed.latencyP999, timed.latencyP99);
        // Behavioural counters are byte-identical to the untimed run:
        // timing never feeds back into the simulation.
        EXPECT_EQ(timed.system.cacheMisses, untimed.system.cacheMisses);
        EXPECT_EQ(timed.system.sharingInvalidations,
                  untimed.system.sharingInvalidations);
        EXPECT_EQ(timed.system.forcedInvalidations,
                  untimed.system.forcedInvalidations);
        EXPECT_EQ(timed.directory.insertions,
                  untimed.directory.insertions);
        EXPECT_EQ(timed.directory.forcedEvictions,
                  untimed.directory.forcedEvictions);
        EXPECT_EQ(timed.avgInsertionAttempts,
                  untimed.avgInsertionAttempts);
        EXPECT_EQ(timed.avgOccupancy, untimed.avgOccupancy);
    }
}

TEST(CostModelExperiment, PercentilesBitIdenticalAcrossJobs)
{
    // The canonical-order apply phase does the accounting, so latency
    // histograms inherit the --jobs determinism contract.
    SweepSpec spec;
    spec.config("Cuckoo 4x64", smallConfig());
    spec.workload("wl", smallWorkload());
    ExperimentOptions opts;
    opts.warmupAccesses = 5000;
    opts.measureAccesses = 20000;
    opts.occupancySampleEvery = 1000;
    opts.costModel = "mesh";
    spec.options("mesh", opts);

    const std::vector<SweepRecord> baseline =
        SweepRunner(SweepOptions{1, ""}).run(spec);
    ASSERT_EQ(baseline.size(), 1u);
    const LatencyHistogram &expect = baseline[0].result.system.latency;
    ASSERT_FALSE(expect.empty());

    for (const unsigned jobs : {2u, 4u}) {
        const std::vector<SweepRecord> records =
            SweepRunner(SweepOptions{jobs, ""}).run(spec);
        ASSERT_EQ(records.size(), 1u);
        const ExperimentResult &result = records[0].result;
        EXPECT_TRUE(result.system.latency == expect) << "jobs " << jobs;
        EXPECT_EQ(result.latencyP50, baseline[0].result.latencyP50);
        EXPECT_EQ(result.latencyP99, baseline[0].result.latencyP99);
        EXPECT_EQ(result.latencyP999, baseline[0].result.latencyP999);
    }
}

TEST(CostModelExperiment, IntervalWindowsSumToWholeRunHistogram)
{
    ExperimentOptions opts;
    opts.warmupAccesses = 5000;
    opts.measureAccesses = 20000;
    opts.occupancySampleEvery = 1000;
    opts.intervalAccesses = 3000; // deliberately not a divisor
    opts.costModel = "fixed";
    const ExperimentResult result =
        runExperiment(smallConfig(), smallWorkload(), opts);
    ASSERT_FALSE(result.system.latency.empty());
    ASSERT_FALSE(result.intervals.empty());

    LatencyHistogram window_sum;
    for (const IntervalRecord &window : result.intervals.windows)
        window_sum.merge(window.latency);
    EXPECT_TRUE(window_sum == result.system.latency);
}

// --- golden pins -------------------------------------------------------------

/** Replay one committed fixture on the golden CMP under @p model. */
LatencyHistogram
replayTimed(const std::string &trace, const std::string &organization,
            const std::string &model)
{
    const std::string path =
        std::string(CDIR_TEST_DATA_DIR) + "/" + trace;
    const CmpConfig config = test::goldenReplayConfig(
        organization, CmpConfigKind::SharedL2);
    CmpSystem system(config);
    const std::unique_ptr<CostModel> costs =
        makeCostModel(model, config);
    system.setCostModel(costs.get());
    const auto reader = makeTraceReader(
        path, TraceReadOptions{config.numCores, true});
    system.run(*reader, ~std::uint64_t{0});
    return system.stats().latency;
}

TEST(CostModelGolden, PinnedPercentilesForMixedFixture)
{
    // Exact pins: the mixed.ctr fixture replayed through the selected
    // Cuckoo organization on the golden 4-core CMP. Any change to the
    // cost-model arithmetic, the histogram geometry, or the replay
    // semantics moves these numbers. The fixture thrashes the
    // under-provisioned directory by design, so the upper percentiles
    // sit at the attempt-bound chain (4 + 31*6 + 200 + 10 = 400 for
    // the fixed model) while p10/p25 still see hits and clean misses.
    const LatencyHistogram fixed =
        replayTimed("mixed.ctr", "Cuckoo", "fixed");
    ASSERT_EQ(fixed.count(), 3206u);
    EXPECT_EQ(fixed.percentile(100), 16u);  // hit: 4 + 12
    EXPECT_EQ(fixed.percentile(250), 204u); // clean miss: 4 + 200
    EXPECT_EQ(fixed.percentile(500), 400u);
    EXPECT_EQ(fixed.percentile(990), 400u);
    EXPECT_EQ(fixed.maxLatency(), 400u);

    const LatencyHistogram mesh =
        replayTimed("mixed.ctr", "Cuckoo", "mesh");
    ASSERT_EQ(mesh.count(), fixed.count());
    EXPECT_EQ(mesh.percentile(100), 22u);
    EXPECT_EQ(mesh.percentile(250), 208u);
    EXPECT_EQ(mesh.percentile(500), 400u);
    EXPECT_EQ(mesh.percentile(990), 424u);
    EXPECT_EQ(mesh.maxLatency(), 424u);
}

} // namespace
} // namespace cdir
