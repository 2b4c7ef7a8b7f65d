/**
 * @file
 * Batched access-protocol coverage:
 *
 *  - scalar access(request, ctx) (one request per context reset) and
 *    accessBatch() must produce bit-identical DirectoryStats for every
 *    registered organization over identical operation streams;
 *  - DirAccessResult snapshots must agree with the live context
 *    outcomes field by field;
 *  - CmpSystem with batchWindow > 1 must keep the directory-covers-
 *    caches inclusion invariant for every organization,
 *    batchWindow == 1 must reproduce the per-reference access() path
 *    exactly, and every window must reproduce the staged per-slice
 *    replay the driver once used, counter for counter;
 *  - steady-state directory churn through the context protocol must be
 *    allocation-free for every organization (the redesign's headline
 *    guarantee), including every sharer format once sets spill past
 *    64 caches, and building a system must not allocate per entry or
 *    per batch-window slot, nor strand heap or arena pages when it is
 *    rebuilt;
 *  - a system's line-aligned arrays live in one huge-page-advised arena
 *    (common/arena.hh) that returns to its pool however the system
 *    ends, with colour-staggered carves and, under AddressSanitizer,
 *    poisoned bytes past every carve.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/alloc_counter.hh"
#include "common/arena.hh"
#include "common/bit_util.hh"
#include "common/rng.hh"
#include "dir_test_util.hh"
#include "directory/directory.hh"
#include "model/cost_model.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"

namespace cdir {
namespace {

constexpr std::size_t kCaches = 8;

/** Workable small parameters for any registered organization. */
DirectoryParams
paramsFor(const std::string &organization)
{
    DirectoryParams p;
    p.organization = organization;
    p.numCaches = kCaches;
    p.ways = 4;
    p.sets = 64;
    p.trackedCacheAssoc = 2;
    p.taglessBucketBits = 64;
    return p;
}

void
expectStatsEqual(const DirectoryStats &a, const DirectoryStats &b,
                 const std::string &label)
{
    EXPECT_EQ(a.lookups, b.lookups) << label;
    EXPECT_EQ(a.hits, b.hits) << label;
    EXPECT_EQ(a.insertions, b.insertions) << label;
    EXPECT_EQ(a.sharerAdds, b.sharerAdds) << label;
    EXPECT_EQ(a.writeUpgrades, b.writeUpgrades) << label;
    EXPECT_EQ(a.sharerRemovals, b.sharerRemovals) << label;
    EXPECT_EQ(a.entryFrees, b.entryFrees) << label;
    EXPECT_EQ(a.forcedEvictions, b.forcedEvictions) << label;
    EXPECT_EQ(a.forcedBlockInvalidations, b.forcedBlockInvalidations)
        << label;
    EXPECT_EQ(a.insertFailures, b.insertFailures) << label;
    EXPECT_EQ(a.insertionAttempts.count(), b.insertionAttempts.count())
        << label;
    EXPECT_DOUBLE_EQ(a.insertionAttempts.sum(), b.insertionAttempts.sum())
        << label;
    ASSERT_EQ(a.attemptHistogram.maxValue(), b.attemptHistogram.maxValue())
        << label;
    for (std::size_t v = 0; v <= a.attemptHistogram.maxValue(); ++v)
        EXPECT_EQ(a.attemptHistogram.at(v), b.attemptHistogram.at(v))
            << label << " bucket " << v;
}

/** Deterministic mixed read/write stream over a small tag space. */
std::vector<DirRequest>
makeStream(std::uint64_t seed, std::size_t count, std::size_t tag_space)
{
    Rng rng(seed);
    std::vector<DirRequest> stream;
    stream.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        stream.push_back(DirRequest{
            rng.below(tag_space), static_cast<CacheId>(rng.below(kCaches)),
            rng.chance(0.3)});
    }
    return stream;
}

TEST(BatchAccess, ScalarAndBatchProduceBitIdenticalStats)
{
    for (const std::string &name : directoryOrganizations()) {
        const DirectoryParams p = paramsFor(name);
        auto scalar_dir = makeDirectory(p);
        auto batch_dir = makeDirectory(p);
        ASSERT_NE(scalar_dir, nullptr) << name;
        ASSERT_NE(batch_dir, nullptr) << name;

        const auto stream = makeStream(7, 4096, 512);
        DirAccessContext scalar_ctx = scalar_dir->makeContext();
        DirAccessContext ctx = batch_dir->makeContext();

        constexpr std::size_t kChunk = 16;
        for (std::size_t base = 0; base < stream.size(); base += kChunk) {
            const std::size_t n =
                std::min(kChunk, stream.size() - base);
            // Scalar side: one request per context reset.
            for (std::size_t i = 0; i < n; ++i) {
                scalar_ctx.reset();
                scalar_dir->access(stream[base + i], scalar_ctx);
            }
            // Batch side: the whole chunk through one context.
            ctx.reset();
            batch_dir->accessBatch(
                std::span<const DirRequest>(&stream[base], n), ctx);
            ASSERT_EQ(ctx.size(), n) << name;
            // Interleave removals at chunk boundaries on both sides so
            // the free/recycle paths are exercised identically.
            const DirRequest &r = stream[base];
            scalar_dir->removeSharer(r.tag, r.cache);
            batch_dir->removeSharer(r.tag, r.cache);
        }

        expectStatsEqual(scalar_dir->stats(), batch_dir->stats(), name);
        EXPECT_EQ(scalar_dir->validEntries(), batch_dir->validEntries())
            << name;
    }
}

TEST(BatchAccess, SnapshotsMatchContextOutcomes)
{
    // DirAccessResult snapshots (the value-semantics convenience used
    // by tests/examples) must reproduce the live context outcome field
    // by field, including the pooled invalidation/eviction storage.
    for (const std::string &name : directoryOrganizations()) {
        const DirectoryParams p = paramsFor(name);
        auto snap_dir = makeDirectory(p);
        auto ctx_dir = makeDirectory(p);

        const auto stream = makeStream(23, 2048, 256);
        DirAccessContext ctx = ctx_dir->makeContext();
        for (const DirRequest &r : stream) {
            const DirAccessResult snap =
                test::accessDir(*snap_dir, r.tag, r.cache, r.isWrite);
            ctx.reset();
            ctx_dir->access(r, ctx);
            ASSERT_EQ(ctx.size(), 1u) << name;
            const DirAccessOutcome &out = ctx.back();
            ASSERT_EQ(out.hit, snap.hit) << name;
            ASSERT_EQ(out.inserted, snap.inserted) << name;
            ASSERT_EQ(out.insertDiscarded, snap.insertDiscarded) << name;
            ASSERT_EQ(out.attempts, snap.attempts) << name;
            ASSERT_EQ(out.hadSharerInvalidations,
                      snap.hadSharerInvalidations)
                << name;
            if (out.hadSharerInvalidations) {
                ASSERT_TRUE(ctx.sharerInvalidations(out) ==
                            snap.sharerInvalidations)
                    << name;
            }
            ASSERT_EQ(out.evictionCount, snap.forcedEvictions.size())
                << name;
            for (std::size_t e = 0; e < out.evictionCount; ++e) {
                const EvictedEntry &got = ctx.forcedEviction(out, e);
                ASSERT_EQ(got.tag, snap.forcedEvictions[e].tag) << name;
                ASSERT_TRUE(got.targets ==
                            snap.forcedEvictions[e].targets)
                    << name;
            }
        }
        expectStatsEqual(snap_dir->stats(), ctx_dir->stats(), name);
    }
}

WorkloadParams
tinyWorkload(std::uint64_t seed)
{
    WorkloadParams p;
    p.numCores = 4;
    p.codeBlocks = 64;
    p.sharedBlocks = 128;
    p.privateBlocksPerCore = 64;
    p.instructionFraction = 0.2;
    p.sharedDataFraction = 0.4;
    p.writeFraction = 0.25;
    p.seed = seed;
    return p;
}

CmpConfig
tinyConfig(const std::string &organization, std::size_t batch_window)
{
    CmpConfig cfg;
    cfg.kind = CmpConfigKind::SharedL2;
    cfg.numCores = 4;
    cfg.numSlices = 4;
    cfg.privateCache = CacheConfig{32, 2};
    cfg.batchWindow = batch_window;
    cfg.directory = paramsFor(organization);
    cfg.directory.ways =
        (organization == "Sparse" || organization == "InCache") ? 8 : 4;
    cfg.directory.sets = 32;
    return cfg;
}

TEST(BatchAccess, WindowedRunsKeepCoverageForEveryOrganization)
{
    for (const std::string &name : directoryOrganizations()) {
        for (const std::size_t window : {std::size_t{4}, std::size_t{64}}) {
            CmpSystem sys(tinyConfig(name, window));
            SyntheticSource gen(tinyWorkload(11));
            sys.run(gen, 20000);
            EXPECT_TRUE(sys.directoryCoversCaches())
                << name << " window " << window;
            EXPECT_EQ(sys.stats().accesses, 20000u);
        }
    }
}

TEST(BatchAccess, WindowOfOneMatchesPerReferenceDriver)
{
    // run() with the default window must be bit-identical to calling
    // access() per reference (the historical serial driver).
    for (const std::string &name :
         {std::string("Cuckoo"), std::string("Sparse"),
          std::string("DuplicateTag"), std::string("Tagless")}) {
        CmpSystem batched(tinyConfig(name, 1));
        CmpSystem serial(tinyConfig(name, 1));
        SyntheticSource gen_a(tinyWorkload(5));
        SyntheticSource gen_b(tinyWorkload(5));

        batched.run(gen_a, 30000);
        for (int i = 0; i < 30000; ++i)
            serial.access(gen_b.next());

        expectStatsEqual(batched.aggregateDirectoryStats(),
                         serial.aggregateDirectoryStats(), name);
        EXPECT_EQ(batched.stats().cacheHits, serial.stats().cacheHits)
            << name;
        EXPECT_EQ(batched.stats().sharingInvalidations,
                  serial.stats().sharingInvalidations)
            << name;
        EXPECT_EQ(batched.stats().forcedInvalidations,
                  serial.stats().forcedInvalidations)
            << name;
    }
}

/**
 * Reference driver: the staged per-slice replay CmpSystem once used,
 * rebuilt from public calls on a second system's caches and slices.
 * A window stages each slice's sharer removals and requests in order,
 * then every touched slice replays its queue through accessBatch and
 * the outcomes are applied in first-touch slice order.
 */
class StagedReplayDriver
{
  public:
    StagedReplayDriver(CmpSystem &system, const CostModel *model)
        : sys(system), costs(model), queues(system.numSlices())
    {
        for (std::size_t s = 0; s < sys.numSlices(); ++s)
            contexts.push_back(sys.slice(s).makeContext());
        if (costs != nullptr)
            counters.latency.preallocate();
    }

    void
    run(AccessSource &source, std::uint64_t count,
        std::uint64_t sample_every)
    {
        const std::size_t window = sys.config().batchWindow;
        std::size_t staged = 0;
        for (std::uint64_t executed = 1; executed <= count; ++executed) {
            stage(source.next());
            const bool sample_due = executed % sample_every == 0;
            if (++staged == window || sample_due) {
                flush();
                staged = 0;
            }
            if (sample_due)
                counters.directoryOccupancy.add(sys.currentOccupancy());
        }
        flush();
    }

    CmpStats counters;

  private:
    struct Removal
    {
        std::size_t beforeRequest;
        Tag tag;
        CacheId cache;
    };

    struct Queue
    {
        std::vector<Removal> removals;
        std::vector<DirRequest> requests;
        bool dirty = false;
    };

    std::size_t sliceOf(BlockAddr a) const { return a & (queues.size() - 1); }
    Tag tagOf(BlockAddr a) const { return a >> floorLog2(queues.size()); }

    Queue &
    touch(std::size_t slice)
    {
        if (!queues[slice].dirty) {
            queues[slice].dirty = true;
            dirty.push_back(slice);
        }
        return queues[slice];
    }

    void
    stage(const MemAccess &mem)
    {
        const CacheId id =
            static_cast<CacheId>(mem.core * 2 + (mem.instruction ? 0 : 1));
        ++counters.accesses;
        const CacheAccessResult res = sys.cache(id).access(mem.addr, mem.write);
        if (res.hit) {
            ++counters.cacheHits;
            if (res.writeHitClean) {
                ++counters.writeUpgrades;
                touch(sliceOf(mem.addr))
                    .requests.push_back(DirRequest{tagOf(mem.addr), id, true});
            }
            return;
        }
        ++counters.cacheMisses;
        if (res.victim) {
            ++counters.cacheEvictions;
            Queue &q = touch(sliceOf(*res.victim));
            q.removals.push_back(
                Removal{q.requests.size(), tagOf(*res.victim), id});
        }
        touch(sliceOf(mem.addr))
            .requests.push_back(DirRequest{tagOf(mem.addr), id, mem.write});
    }

    void
    replay(std::size_t s)
    {
        Queue &q = queues[s];
        DirAccessContext &ctx = contexts[s];
        ctx.reset();
        std::size_t next = 0;
        const auto requests = [&](std::size_t end) {
            sys.slice(s).accessBatch(
                std::span<const DirRequest>(q.requests.data() + next,
                                            end - next),
                ctx);
            next = end;
        };
        for (const Removal &r : q.removals) {
            requests(r.beforeRequest);
            sys.slice(s).removeSharer(r.tag, r.cache);
        }
        requests(q.requests.size());
    }

    void
    apply(std::size_t s)
    {
        const Queue &q = queues[s];
        const DirAccessContext &ctx = contexts[s];
        const unsigned shift = floorLog2(queues.size());
        for (std::size_t i = 0; i < ctx.size(); ++i) {
            const DirAccessOutcome &out = ctx.outcome(i);
            const DirRequest &req = q.requests[i];
            if (costs != nullptr)
                counters.latency.add(costs->accessLatency(req, out, ctx, s));
            if (out.hadSharerInvalidations) {
                const BlockAddr addr = (req.tag << shift) | s;
                ctx.sharerInvalidations(out).forEachSetBit([&](std::size_t c) {
                    if (c != req.cache && sys.cache(c).invalidate(addr))
                        ++counters.sharingInvalidations;
                });
            }
            for (std::size_t e = 0; e < out.evictionCount; ++e) {
                const EvictedEntry &ev = ctx.forcedEviction(out, e);
                const BlockAddr addr = (ev.tag << shift) | s;
                ev.targets.forEachSetBit([&](std::size_t c) {
                    if (sys.cache(c).invalidate(addr))
                        ++counters.forcedInvalidations;
                });
            }
        }
    }

    void
    flush()
    {
        for (const std::size_t s : dirty)
            replay(s);
        for (const std::size_t s : dirty) {
            apply(s);
            queues[s] = Queue{};
        }
        dirty.clear();
    }

    CmpSystem &sys;
    const CostModel *costs;
    std::vector<Queue> queues;
    std::vector<std::size_t> dirty;
    std::vector<DirAccessContext> contexts;
};

TEST(BatchAccess, DeferredApplyMatchesStagedReplay)
{
    // CmpSystem::run must reproduce the staged per-slice replay's every
    // counter — system, directory, latency and cache contents — for
    // every organization, window and timing mode.
    constexpr std::uint64_t kAccesses = 20000, kSampleEvery = 1000;
    for (const std::string &name : directoryOrganizations()) {
        for (const std::size_t window : {1, 4, 64}) {
            for (const std::string timing : {"", "mesh"}) {
                const std::string label = name + " window " +
                                          std::to_string(window) + " " +
                                          (timing.empty() ? "untimed" : timing);
                const CmpConfig cfg = tinyConfig(name, window);
                const auto model =
                    timing.empty() ? nullptr : makeCostModel(timing, cfg);

                CmpSystem sys(cfg);
                sys.setCostModel(model.get());
                SyntheticSource gen(tinyWorkload(13));
                sys.run(gen, kAccesses, kSampleEvery);

                CmpSystem shell(cfg);
                StagedReplayDriver ref(shell, model.get());
                SyntheticSource ref_gen(tinyWorkload(13));
                ref.run(ref_gen, kAccesses, kSampleEvery);

                const CmpStats &got = sys.stats();
                const CmpStats &want = ref.counters;
                EXPECT_EQ(got.accesses, want.accesses) << label;
                EXPECT_EQ(got.cacheHits, want.cacheHits) << label;
                EXPECT_EQ(got.cacheMisses, want.cacheMisses) << label;
                EXPECT_EQ(got.writeUpgrades, want.writeUpgrades) << label;
                EXPECT_EQ(got.cacheEvictions, want.cacheEvictions) << label;
                EXPECT_EQ(got.sharingInvalidations, want.sharingInvalidations)
                    << label;
                EXPECT_EQ(got.forcedInvalidations, want.forcedInvalidations)
                    << label;
                EXPECT_EQ(got.directoryOccupancy.count(),
                          want.directoryOccupancy.count())
                    << label;
                EXPECT_EQ(got.directoryOccupancy.sum(),
                          want.directoryOccupancy.sum())
                    << label;
                EXPECT_EQ(got.latency.count(), want.latency.count()) << label;
                EXPECT_EQ(got.latency.totalCycles(), want.latency.totalCycles())
                    << label;
                for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
                    ASSERT_EQ(got.latency.bucketAt(b), want.latency.bucketAt(b))
                        << label << " latency bucket " << b;

                expectStatsEqual(sys.aggregateDirectoryStats(),
                                 shell.aggregateDirectoryStats(), label);
                const Histogram a =
                    sys.aggregateDirectoryStats().attemptHistogram;
                const Histogram b =
                    shell.aggregateDirectoryStats().attemptHistogram;
                ASSERT_EQ(a.maxValue(), b.maxValue()) << label;
                for (std::size_t v = 0; v <= a.maxValue(); ++v)
                    EXPECT_EQ(a.at(v), b.at(v)) << label << " attempts " << v;
                for (std::size_t c = 0; c < sys.numCaches(); ++c)
                    EXPECT_EQ(sys.cache(c).residentAddresses(),
                              shell.cache(c).residentAddresses())
                        << label << " cache " << c;
                if (window > 1) {
                    EXPECT_GT(got.forcedInvalidations + got.sharingInvalidations,
                              0u)
                        << label;
                }
            }
        }
    }
}

/** Fixed access list as an AccessSource. */
class VectorSource : public AccessSource
{
  public:
    explicit VectorSource(std::vector<MemAccess> list)
        : accesses(std::move(list))
    {}
    MemAccess next() override { return accesses[index++]; }
    bool exhausted() const override { return index >= accesses.size(); }

  private:
    std::vector<MemAccess> accesses;
    std::size_t index = 0;
};

TEST(BatchAccess, SameWindowEvictionAfterInsertRetiresSharer)
{
    // A cache eviction staged *after* its tag's directory insertion in
    // the same batch window must still retire the sharer: the flush
    // replays each slice's removals and requests in staging order.
    CmpConfig cfg;
    cfg.kind = CmpConfigKind::SharedL2;
    cfg.numCores = 1;
    cfg.numSlices = 1;
    cfg.privateCache = CacheConfig{1, 2}; // one set, two ways
    cfg.batchWindow = 8;
    cfg.directory = paramsFor("Cuckoo");
    cfg.directory.sets = 16;

    CmpSystem sys(cfg);
    // Three data reads from core 0 land in the single D-cache set: the
    // third evicts the first (LRU) after all three directory requests
    // began staging in the same window.
    VectorSource source({MemAccess{0, 0xA0, false, false},
                         MemAccess{0, 0xB0, false, false},
                         MemAccess{0, 0xC0, false, false}});
    sys.run(source, 3, 0);

    EXPECT_FALSE(sys.slice(0).probe(0xA0))
        << "stale sharer: same-window eviction was lost";
    EXPECT_TRUE(sys.slice(0).probe(0xB0));
    EXPECT_TRUE(sys.slice(0).probe(0xC0));
    EXPECT_TRUE(sys.directoryCoversCaches());
    EXPECT_EQ(sys.aggregateDirectoryStats().sharerRemovals, 1u);
    EXPECT_EQ(sys.aggregateDirectoryStats().entryFrees, 1u);
}

/**
 * Steady-state churn through the context protocol must not allocate:
 * retire one tracked tag, insert a fresh one with sharers @p a and
 * @p b, and sprinkle write upgrades to exercise the invalidation
 * bitset pool. Two passes: the first grows every pool to its
 * high-water mark, the second must not allocate at all.
 */
void
expectChurnAllocationFree(Directory &dir, CacheId a, CacheId b,
                          const std::string &label)
{
    DirAccessContext ctx = dir.makeContext();
    std::vector<Tag> live;
    Rng rng(17);
    while (live.size() < 128) {
        const Tag tag = rng.next() >> 8;
        if (dir.probe(tag))
            continue;
        ctx.reset();
        dir.access(DirRequest{tag, a, false}, ctx);
        live.push_back(tag);
    }

    auto churn = [&](std::size_t rounds) {
        std::size_t k = 0;
        for (std::size_t i = 0; i < rounds; ++i) {
            k = (k + 1) % live.size();
            dir.removeSharer(live[k], a);
            const Tag fresh = rng.next() >> 8;
            ctx.reset();
            dir.access(DirRequest{fresh, a, false}, ctx);
            dir.access(DirRequest{fresh, b, false}, ctx);
            dir.access(DirRequest{fresh, a, true}, ctx);
            live[k] = fresh;
        }
    };

    churn(4096); // warmup: grow pools, spill chunks, shadow maps
    const std::size_t before = allocationCount();
    churn(4096); // steady state
    const std::size_t allocated = allocationCount() - before;
    EXPECT_EQ(allocated, 0u)
        << label << " allocated " << allocated
        << " times in steady-state churn";
}

TEST(BatchAccess, SteadyStateChurnIsAllocationFree)
{
    for (const std::string &name : directoryOrganizations()) {
        auto dir = makeDirectory(paramsFor(name));
        expectChurnAllocationFree(*dir, 0, 1, name);
    }
    // Past 64 caches a set with sharers in two 64-cache spans (0 and
    // 127 here) spills out of its slot; the spill blocks must recycle
    // too, for every organization that keeps sharer sets and every
    // format.
    constexpr std::size_t kWideCaches = 128;
    for (const std::string name :
         {"Cuckoo", "Sparse", "Skewed", "Elbow", "InCache"}) {
        for (const SharerFormat format :
             {SharerFormat::FullVector, SharerFormat::CoarseVector,
              SharerFormat::Hierarchical, SharerFormat::Compressed}) {
            DirectoryParams p = paramsFor(name);
            p.numCaches = kWideCaches;
            p.format = format;
            auto dir = makeDirectory(p);
            expectChurnAllocationFree(
                *dir, 0, kWideCaches - 1,
                name + " format #" +
                    std::to_string(static_cast<int>(format)));
        }
    }
}

TEST(BatchAccess, ConstructionAllocationsDoNotScaleWithEntries)
{
    // Sharer sets live in the slot lanes: building the Table 1 16-core
    // system costs the same number of heap allocations whatever the
    // directory's size (the lanes are a fixed number of vectors).
    for (const bool sparse : {false, true}) {
        auto allocationsFor = [&](std::size_t sets) {
            CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
            cfg.directory = sparse ? sparseSliceParams(8, sets)
                                   : cuckooSliceParams(4, sets);
            const std::size_t before = allocationCount();
            {
                CmpSystem sys(cfg);
            }
            return allocationCount() - before;
        };
        EXPECT_EQ(allocationsFor(512), allocationsFor(1024))
            << (sparse ? "Sparse 8x" : "Cuckoo 4x");
    }
}

TEST(BatchAccess, ConstructionAllocationsDoNotScaleWithWindow)
{
    // A campaign manifest's batch_window reaches the constructor
    // unchecked: a huge window must cost nothing until accesses run.
    auto allocationsFor = [](std::size_t window) {
        CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
        cfg.directory = cuckooSliceParams(4, 512);
        cfg.batchWindow = window;
        const std::size_t before = allocationCount();
        {
            CmpSystem sys(cfg);
        }
        return allocationCount() - before;
    };
    EXPECT_EQ(allocationsFor(std::size_t{1} << 24), allocationsFor(1));
}

// --- huge-page arenas ------------------------------------------------------

/** True iff every arena is back in the pool with no live carve. */
bool
everyArenaPooled()
{
    for (const ArenaInfo &a : arenaSnapshot())
        if (!a.pooled || a.liveBytes != 0)
            return false;
    return true;
}

/** True iff this host maps huge-page arenas (else scopes use the heap). */
bool
arenasAvailable()
{
    const ArenaScope scope;
    const LineAlignedVector<std::uint64_t> probe(1);
    return arenaOwns(probe.data());
}

/** The /proc/self/smaps mapping holding @p addr: its range and flags. */
struct Mapping
{
    std::uintptr_t start = 0, end = 0;
    std::set<std::string> flags;
};

Mapping
mappingOf(std::uintptr_t addr)
{
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    Mapping found;
    bool inside = false;
    while (std::getline(smaps, line)) {
        std::uintptr_t lo = 0, hi = 0;
        char dash = 0;
        std::istringstream head(line);
        if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
            inside = lo <= addr && addr < hi;
            if (inside)
                found = Mapping{lo, hi, {}};
        } else if (inside && line.starts_with("VmFlags:")) {
            std::istringstream flags(line.substr(8));
            for (std::string f; flags >> f;)
                found.flags.insert(f);
        }
    }
    return found;
}

TEST(Arena, SystemArraysLieInOneHugePageMapping)
{
    // Every private-cache frame array and directory table is a
    // line-aligned vector built in the CmpSystem constructor, so each
    // one is carved from the system's arena unless it went to the heap.
    // No heap block of construction is as large as the smallest of
    // them, and exactly one arena holds live carves: all of them lie in
    // that arena's one mapping, advised for huge pages ("hg").
    if (!arenasAvailable())
        GTEST_SKIP() << "this kernel maps no huge-page arena";
    for (const bool sparse : {false, true}) {
        CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
        cfg.directory = sparse ? sparseSliceParams(8, 512)
                               : cuckooSliceParams(4, 512);
        resetLargestAllocation();
        CmpSystem sys(cfg);
        const std::size_t largest_heap_block = largestAllocation();

        std::size_t smallest = SIZE_MAX, frame_bytes = 0;
        for (std::size_t i = 0; i < sys.numCaches(); ++i) {
            const std::size_t bytes =
                sys.cache(i).memoryBytes() - sizeof(SetAssocCache);
            smallest = std::min(smallest, bytes);
            frame_bytes += bytes;
        }
        for (std::size_t s = 0; s < sys.numSlices(); ++s)
            smallest = std::min(smallest, sys.slice(s).capacity() *
                                              sizeof(Tag));
        EXPECT_LT(largest_heap_block, smallest)
            << "an array of " << largest_heap_block
            << " bytes went to the heap";

        std::vector<ArenaInfo> holding;
        for (const ArenaInfo &a : arenaSnapshot())
            if (a.liveBytes != 0)
                holding.push_back(a);
        ASSERT_EQ(holding.size(), 1u);
        const ArenaInfo &arena = holding.front();
        EXPECT_FALSE(arena.pooled);
        EXPECT_GE(arena.liveBytes, frame_bytes);
        EXPECT_LE(arena.liveBytes, arena.mapped);
        EXPECT_EQ(arena.base % (std::size_t{2} << 20), 0u);

        // The kernel may merge neighbouring arenas into one mapping.
        const Mapping m = mappingOf(arena.base);
        EXPECT_LE(m.start, arena.base);
        EXPECT_GE(m.end, arena.base + arena.reserved);
        EXPECT_TRUE(m.flags.count("hg"))
            << "arena mapping not advised MADV_HUGEPAGE";
    }
    EXPECT_TRUE(everyArenaPooled());
}

TEST(Arena, ConsecutiveEqualCarvesStartOnDifferentPageOffsets)
{
    // Packed power-of-two lanes would all start on the same cache sets;
    // each carve is staggered by a varying number of lines.
    if (!arenasAvailable())
        GTEST_SKIP() << "this kernel maps no huge-page arena";
    const ArenaScope scope;
    std::vector<LineAlignedVector<std::uint64_t>> lanes;
    for (int i = 0; i < 16; ++i)
        lanes.emplace_back(512); // 4 KiB each
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const auto at = reinterpret_cast<std::uintptr_t>(lanes[i].data());
        EXPECT_TRUE(arenaOwns(lanes[i].data()));
        EXPECT_EQ(at % 64, 0u);
        if (i > 0) {
            const auto before =
                reinterpret_cast<std::uintptr_t>(lanes[i - 1].data());
            EXPECT_NE(at % 4096, before % 4096) << "carve " << i;
        }
    }
}

TEST(Arena, NoOpenScopeAllocatesFromTheHeap)
{
    LineAlignedVector<std::uint64_t> before(64);
    EXPECT_FALSE(arenaOwns(before.data()));
    LineAlignedVector<std::uint64_t> carved;
    {
        const ArenaScope scope;
        carved.assign(64, 7);
    }
    // A carve outlives its scope; growth after the scope is heap.
    EXPECT_EQ(arenaOwns(carved.data()), arenasAvailable());
    LineAlignedVector<std::uint64_t> after(64);
    EXPECT_FALSE(arenaOwns(after.data()));
    EXPECT_EQ(carved[63], 7u);
    carved.resize(4096);
    EXPECT_FALSE(arenaOwns(carved.data()));
    EXPECT_EQ(carved[63], 7u);
}

TEST(Arena, ThrowingConstructorReturnsItsArena)
{
    {
        CmpSystem warm(CmpConfig::paperConfig(CmpConfigKind::SharedL2));
    }
    const std::size_t arenas = arenaSnapshot().size();
    CmpConfig slices = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
    slices.numSlices = 3;
    EXPECT_THROW(CmpSystem{slices}, std::invalid_argument);
    EXPECT_TRUE(everyArenaPooled());
    CmpConfig window = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
    window.batchWindow = 0;
    EXPECT_THROW(CmpSystem{window}, std::invalid_argument);
    EXPECT_TRUE(everyArenaPooled());
    // A throw after the caches were carved (zero sets per slice).
    CmpConfig mirror = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
    mirror.directory.organization = "DuplicateTag";
    mirror.numSlices = mirror.privateCache.numSets * 2;
    EXPECT_THROW(CmpSystem{mirror}, std::invalid_argument);
    EXPECT_TRUE(everyArenaPooled());
    EXPECT_EQ(arenaSnapshot().size(), arenas)
        << "a pooled arena was not reused";
}

TEST(Arena, FourThreadsBuildAndDestroySystemsAtOnce)
{
    const CmpConfig cfg = tinyConfig("Cuckoo", 4);
    const auto runOne = [&] {
        CmpSystem sys(cfg);
        SyntheticSource gen(tinyWorkload(41));
        sys.run(gen, 20000);
        return sys.aggregateDirectoryStats();
    };
    const DirectoryStats reference = runOne();
    std::vector<std::vector<DirectoryStats>> results(4);
    std::vector<std::thread> threads;
    for (auto &out : results)
        threads.emplace_back([&] {
            for (int i = 0; i < 8; ++i)
                out.push_back(runOne());
        });
    for (std::thread &t : threads)
        t.join();
    for (const auto &out : results)
        for (const DirectoryStats &stats : out)
            expectStatsEqual(stats, reference, "threaded rebuild");
    EXPECT_TRUE(everyArenaPooled());
}

TEST(Arena, WriteOnePastAFrameArrayIsReported)
{
#if defined(__SANITIZE_ADDRESS__)
    // Whatever follows a carve — a colour gap, a released carve or the
    // unused tail — is poisoned, as the heap's redzones are.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto overrun = [] {
        const ArenaScope scope;
        LineAlignedVector<SetAssocCache::Frame> frames(2048);
        if (!arenaOwns(frames.data()))
            throw std::runtime_error("no arena");
        volatile SetAssocCache::Frame *past = frames.data() + frames.size();
        past->tag = 1;
    };
    EXPECT_DEATH(overrun(), "use-after-poison");
#else
    GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

TEST(BatchAccess, RebuiltSystemsReuseTheirHeap)
{
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__)
    // A benchmark or sweep rebuilds the system many times while keeping
    // small result records. The systems' line-aligned buffers must be
    // reusable after they are freed, or every rebuild strands about a
    // system's worth of heap.
    CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
    cfg.directory = cuckooSliceParams(4, 512);
    const WorkloadParams params =
        paperWorkloadParams(PaperWorkload::OltpDb2, false, 16);
    const auto arena_mapped_bytes = [] {
        std::size_t total = 0;
        for (const ArenaInfo &a : arenaSnapshot())
            total += a.mapped;
        return total;
    };
    std::vector<std::string> records;
    std::size_t heap_after_warmup = 0;
    std::size_t arena_after_warmup = 0;
    for (int rebuild = 0; rebuild < 60; ++rebuild) {
        {
            CmpSystem sys(cfg);
            SyntheticSource gen(params);
            sys.run(gen, 20000);
            for (int i = 0; i < 30; ++i)
                records.push_back("a result record too long for SSO " +
                                  std::to_string(i));
        }
        if (rebuild == 10) {
            heap_after_warmup = mallinfo2().arena;
            arena_after_warmup = arena_mapped_bytes();
        }
    }
    const std::size_t growth = mallinfo2().arena - heap_after_warmup;
    EXPECT_LT(growth, std::size_t{4} << 20)
        << "heap grew " << growth << " bytes over 50 rebuilds";
    // Each rebuild reuses the pooled arena of the system before it.
    EXPECT_EQ(arena_mapped_bytes(), arena_after_warmup);
#else
    GTEST_SKIP() << "needs glibc's mallinfo2 and its allocator";
#endif
}

TEST(BatchAccess, SteadyStateSystemRunIsAllocationFree)
{
    // The whole-system acceptance criterion: after warmup,
    // CmpSystem::run() performs zero heap allocations per access.
    CmpConfig cfg = tinyConfig("Cuckoo", 16);
    CmpSystem sys(cfg);
    SyntheticSource gen(tinyWorkload(29));
    sys.run(gen, 50000); // warmup: caches fill, pools grow
    const std::size_t before = allocationCount();
    sys.run(gen, 50000); // steady state
    const std::size_t allocated = allocationCount() - before;
    EXPECT_EQ(allocated, 0u)
        << "steady-state run() allocated " << allocated << " times";
}

} // namespace
} // namespace cdir
