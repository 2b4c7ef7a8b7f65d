/**
 * @file
 * google-benchmark microbenchmarks: lookup/insert/remove throughput of
 * every directory organization at a realistic steady-state
 * occupancy, plus the allocation story of the access protocol.
 *
 * Not a paper figure — a software-performance sanity check that the
 * constant-time claims of the Cuckoo organization hold in this
 * implementation, and that the access protocol does not allocate:
 *
 *  - BM_Probe times side-effect-free lookups of tracked tags;
 *  - BM_ContextAccessChurn retires and inserts entries (with a sharer
 *    add and a write upgrade) through a reusable DirAccessContext;
 *  - BM_AccessBatch drives whole DirRequest spans through accessBatch;
 *  - BM_HashIndexAll times one HashFamily::indexAll call (4 ways, 512
 *    sets per way — the paper's Cuckoo slice) over random tags, the
 *    index computation every probe starts with;
 *  - BM_SyntheticNext/DB2 and BM_FleetNext time one generator draw of
 *    the DB2 preset (16 cores) and of the 16-tenant fleet spec, and
 *    BM_ZipfSample/{6144,24576} one Zipf draw over the DB2 code and
 *    shared regions — the generator's cost without a profiler.
 *
 * The churn and batch families report an `allocs/op` counter from a
 * global operator-new hook; after warmup it must read 0.00.
 *
 * End-to-end simulator throughput is measured by perfbench/, not here.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/alloc_counter.hh"
#include "common/rng.hh"
#include "directory/directory.hh"
#include "hash/hash_family.hh"
#include "workload/fleet.hh"
#include "workload/workload.hh"

namespace {

using namespace cdir;

constexpr std::size_t kCaches = 32;

std::unique_ptr<Directory>
build(const std::string &organization)
{
    DirectoryParams p;
    p.organization = organization;
    p.numCaches = kCaches;
    if (organization == "Cuckoo" || organization == "Skewed" ||
        organization == "Elbow") {
        p.ways = 4;
        p.sets = 2048;
    } else if (organization == "Sparse") {
        p.ways = 8;
        p.sets = 1024;
    } else if (organization == "InCache") {
        p.ways = 16;
        p.sets = 512;
    } else {
        // DuplicateTag / Tagless mirror small cache sets.
        p.sets = 128;
        p.trackedCacheAssoc = 2;
        p.taglessBucketBits = 64;
    }
    return makeDirectory(p);
}

void
warm(Directory &dir, DirAccessContext &ctx, std::vector<Tag> &live,
     std::size_t count)
{
    Rng rng(5);
    while (live.size() < count) {
        const Tag tag = rng.next() >> 8;
        if (dir.probe(tag))
            continue;
        ctx.reset();
        dir.access(DirRequest{tag, static_cast<CacheId>(live.size() %
                                                        kCaches),
                              false},
                   ctx);
        live.push_back(tag);
    }
}

void
BM_Probe(benchmark::State &state, const std::string &org)
{
    auto dir = build(org);
    DirAccessContext ctx = dir->makeContext();
    std::vector<Tag> live;
    warm(*dir, ctx, live, 2048);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dir->probe(live[i++ % live.size()]));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/** Steady-state churn through a reusable DirAccessContext: retire one
 *  entry, insert one with a sharer and a write upgrade. */
void
BM_ContextAccessChurn(benchmark::State &state, const std::string &org)
{
    auto dir = build(org);
    DirAccessContext ctx = dir->makeContext();
    std::vector<Tag> live;
    warm(*dir, ctx, live, 2048);
    Rng rng(7);
    std::size_t i = 0;
    const std::size_t allocs_before = allocationCount();
    for (auto _ : state) {
        const std::size_t k = i++ % live.size();
        const auto cache = static_cast<CacheId>(k % kCaches);
        const auto peer = static_cast<CacheId>((k + 1) % kCaches);
        dir->removeSharer(live[k], cache);
        const Tag fresh = rng.next() >> 8;
        ctx.reset();
        dir->access(DirRequest{fresh, cache, false}, ctx);
        dir->access(DirRequest{fresh, peer, false}, ctx);
        dir->access(DirRequest{fresh, cache, true}, ctx);
        benchmark::DoNotOptimize(ctx.size());
        live[k] = fresh;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 3));
    state.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(allocationCount() - allocs_before),
        benchmark::Counter::kAvgIterations);
}

/** Whole spans of requests through accessBatch with one context. */
void
BM_AccessBatch(benchmark::State &state, const std::string &org)
{
    auto dir = build(org);
    DirAccessContext ctx = dir->makeContext();
    std::vector<Tag> live;
    warm(*dir, ctx, live, 2048);

    constexpr std::size_t kBatch = 64;
    ctx.reserve(kBatch);
    std::vector<DirRequest> requests(kBatch);
    Rng rng(9);
    std::size_t i = 0;
    const std::size_t allocs_before = allocationCount();
    for (auto _ : state) {
        for (std::size_t b = 0; b < kBatch; ++b) {
            const std::size_t k = i++ % live.size();
            // Re-reference mostly tracked tags; refresh a few.
            if (b % 8 == 0) {
                dir->removeSharer(live[k],
                                  static_cast<CacheId>(k % kCaches));
                live[k] = rng.next() >> 8;
            }
            requests[b] = DirRequest{live[k],
                                     static_cast<CacheId>(k % kCaches),
                                     (b & 3) == 3};
        }
        ctx.reset();
        dir->accessBatch(requests, ctx);
        benchmark::DoNotOptimize(ctx.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
    state.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(allocationCount() - allocs_before),
        benchmark::Counter::kAvgIterations);
}

/** One indexAll call per iteration over a ring of random tags. */
void
BM_HashIndexAll(benchmark::State &state, HashKind kind)
{
    constexpr std::size_t kRing = 4096; // power of two: cheap wrap
    const auto family = makeHashFamily(kind, 4, 512);
    std::vector<Tag> tags(kRing);
    Rng rng(11);
    for (Tag &tag : tags)
        tag = rng.next() >> 8;
    std::size_t idx[kMaxProbeWays];
    std::size_t i = 0;
    for (auto _ : state) {
        family->indexAll(tags[i++ % kRing], idx);
        benchmark::DoNotOptimize(idx);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_CAPTURE(BM_HashIndexAll, Skewing, HashKind::Skewing);
BENCHMARK_CAPTURE(BM_HashIndexAll, Strong, HashKind::Strong);
BENCHMARK_CAPTURE(BM_HashIndexAll, Modulo, HashKind::Modulo);

/** The DB2 preset's generator parameters (Shared-L2, 16 cores). */
WorkloadParams
db2Params()
{
    return paperWorkloadParams(PaperWorkload::OltpDb2, false, 16);
}

/** One SyntheticWorkload::next() per iteration. */
void
BM_SyntheticNext(benchmark::State &state, const WorkloadParams &params)
{
    SyntheticWorkload workload(params);
    for (auto _ : state)
        benchmark::DoNotOptimize(workload.next());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_CAPTURE(BM_SyntheticNext, DB2, db2Params());

/** One FleetWorkload::next() per iteration (the 16-tenant fleet). */
void
BM_FleetNext(benchmark::State &state)
{
    FleetWorkload fleet(parseFleetSpec(
        "fleet:tenants=16:blocks=8192:churn=200000:storm=500000", 16));
    for (auto _ : state)
        benchmark::DoNotOptimize(fleet.next());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_FleetNext);

/** One Zipf draw over a DB2 region of state.range(0) blocks. */
void
BM_ZipfSample(benchmark::State &state)
{
    const WorkloadParams p = db2Params();
    const auto n = static_cast<std::size_t>(state.range(0));
    const double theta = n == p.codeBlocks     ? p.codeTheta
                         : n == p.sharedBlocks ? p.sharedTheta
                                               : p.privateTheta;
    const ZipfSampler zipf(n, theta);
    Rng rng(13);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_ZipfSample)->Arg(6144)->Arg(24576);

/** Register one instance of each benchmark per organization. */
void
registerBenchmarks()
{
    struct Family
    {
        const char *name;
        void (*fn)(benchmark::State &, const std::string &);
    };
    const Family families[] = {
        {"BM_Probe", BM_Probe},
        {"BM_ContextAccessChurn", BM_ContextAccessChurn},
        {"BM_AccessBatch", BM_AccessBatch},
    };
    for (const Family &family : families) {
        for (const std::string &org : directoryOrganizations()) {
            const std::string name =
                std::string(family.name) + "/" + org;
            auto *fn = family.fn;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [fn, org](benchmark::State &state) { fn(state, org); });
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    registerBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
