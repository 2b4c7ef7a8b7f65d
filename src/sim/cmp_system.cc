#include "sim/cmp_system.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bit_util.hh"
#include "directory/registry.hh"
#include "model/cost_model.hh"
#include "sim/probe.hh"

namespace cdir {

CmpConfig
CmpConfig::paperConfig(CmpConfigKind kind, std::size_t cores)
{
    CmpConfig cfg;
    cfg.kind = kind;
    cfg.numCores = cores;
    cfg.numSlices = cores; // one slice per tile (Fig. 2)
    if (kind == CmpConfigKind::SharedL2) {
        cfg.privateCache = CacheConfig{512, 2}; // 64KB 2-way L1 (Table 1)
    } else {
        cfg.privateCache = CacheConfig{1024, 16}; // 1MB 16-way L2
    }
    cfg.directory.numCaches = cfg.numCaches();
    cfg.directory.trackedCacheAssoc = cfg.privateCache.assoc;
    return cfg;
}

CmpSystem::CmpSystem(const CmpConfig &config) : cfg(config)
{
    if (cfg.numSlices == 0 || !isPowerOfTwo(cfg.numSlices))
        throw std::invalid_argument(
            "CmpConfig: numSlices must be a power of two (got " +
            std::to_string(cfg.numSlices) + ")");
    if (cfg.batchWindow < 1)
        throw std::invalid_argument("CmpConfig: batchWindow must be >= 1");
    sliceMask = cfg.numSlices - 1;
    sliceShift = floorLog2(cfg.numSlices);

    const std::size_t n_caches = cfg.numCaches();
    caches.reserve(n_caches);
    for (std::size_t i = 0; i < n_caches; ++i)
        caches.push_back(std::make_unique<SetAssocCache>(cfg.privateCache));

    DirectoryParams dir = cfg.directory;
    dir.numCaches = n_caches;
    dir.trackedCacheAssoc = cfg.privateCache.assoc;
    const std::string organization = dir.resolvedOrganization();
    if (DirectoryRegistry::instance()
            .traits(organization)
            .mirrorsTrackedCaches) {
        // These organizations mirror the tracked caches' sets; a slice
        // covers cacheSets / numSlices of them (Fig. 3). A very large
        // system whose slice count exceeds the private cache's sets
        // would round that to *zero* sets per slice — a mis-sized
        // directory that used to slip through silently in release
        // builds (the former assert); reject it explicitly.
        if (cfg.privateCache.numSets < cfg.numSlices)
            throw std::invalid_argument(
                "CmpConfig: organization '" + organization +
                "' mirrors the tracked caches, but numSlices (" +
                std::to_string(cfg.numSlices) +
                ") exceeds the private cache's sets (" +
                std::to_string(cfg.privateCache.numSets) +
                ") — each slice would cover zero sets");
        dir.sets = cfg.privateCache.numSets / cfg.numSlices;
    }
    slices.reserve(cfg.numSlices);
    queues.resize(cfg.numSlices);
    dirtySlices.reserve(cfg.numSlices);
    contexts.reserve(cfg.numSlices);
    for (std::size_t s = 0; s < cfg.numSlices; ++s) {
        dir.hashSeed = cfg.directory.hashSeed + s;
        slices.push_back(makeDirectory(dir));
        contexts.emplace_back(n_caches);
        // A window stages at most batchWindow requests and removals per
        // slice; reserving that bound keeps the steady-state loop free
        // of heap traffic.
        contexts.back().reserve(cfg.batchWindow);
        queues[s].removals.reserve(cfg.batchWindow);
        queues[s].requests.reserve(cfg.batchWindow);
    }
    // Serial default: every slice on lane 0.
    sliceShard.assign(cfg.numSlices, 0);
    rebuildLaneLists();
}

CacheId
CmpSystem::cacheIdFor(CoreId core, bool instruction) const
{
    if (cfg.kind == CmpConfigKind::SharedL2) {
        // Even ids: I-caches; odd ids: D-caches.
        return static_cast<CacheId>(core * 2 + (instruction ? 0 : 1));
    }
    return core;
}

void
CmpSystem::stage(const MemAccess &mem)
{
    assert(mem.core < cfg.numCores);
    const CacheId cache_id = cacheIdFor(mem.core, mem.instruction);
    SetAssocCache &priv = *caches[cache_id];
    const std::size_t home = sliceOf(mem.addr);
    const Tag tag = tagOf(mem.addr);

    ++counters.accesses;
    const CacheAccessResult res = priv.access(mem.addr, mem.write);

    if (res.hit) {
        ++counters.cacheHits;
        if (res.writeHitClean) {
            // MSI upgrade: the block may be shared elsewhere; the home
            // directory invalidates the other copies.
            ++counters.writeUpgrades;
            markDirty(home);
            queues[home].requests.push_back(
                DirRequest{tag, cache_id, true});
        }
        return;
    }

    ++counters.cacheMisses;

    // The cache's eviction reaches the directory before this miss's
    // request (it is what keeps Duplicate-Tag slices exactly mirroring
    // the caches); beforeRequest records its position in the slice's
    // replay order.
    if (res.victim) {
        ++counters.cacheEvictions;
        const BlockAddr victim = *res.victim;
        const std::size_t victim_home = sliceOf(victim);
        markDirty(victim_home);
        SliceQueue &victim_queue = queues[victim_home];
        victim_queue.removals.push_back(StagedRemoval{
            static_cast<std::uint32_t>(victim_queue.requests.size()),
            tagOf(victim), cache_id});
    }

    markDirty(home);
    queues[home].requests.push_back(DirRequest{tag, cache_id, mem.write});
}

void
CmpSystem::markDirty(std::size_t slice)
{
    if (!queues[slice].dirty) {
        queues[slice].dirty = true;
        dirtySlices.push_back(static_cast<std::uint32_t>(slice));
        if (shardCount > 1)
            shardDirty[shardOf(slice)].push_back(
                static_cast<std::uint32_t>(slice));
    }
}

void
CmpSystem::setShards(unsigned shards)
{
    if (shards == 0)
        shards = 1;
    if (shards > cfg.numSlices)
        shards = static_cast<unsigned>(cfg.numSlices);
    assert(dirtySlices.empty() &&
           "setShards must not interrupt an open batch window");
    if (shards != shardCount) {
        shardGroup.reset();
        shardPool.reset();
        shardCount = shards;
        shardDirty.assign(shardCount, {});
        shardOccupancy.assign(shardCount, {0, 0});
        if (shardCount > 1) {
            for (auto &list : shardDirty)
                list.reserve(cfg.numSlices);
            // The calling thread drives shard 0, so N shards need N-1
            // workers; the pool persists across windows (TaskGroup
            // barriers join each round without re-spawning threads).
            shardPool = std::make_unique<ThreadPool>(shardCount - 1);
            shardGroup = std::make_unique<TaskGroup>(*shardPool);
        }
    }
    // Default topology-aware mapping: lane k owns the contiguous,
    // balanced slice group [floor(k*n/K), floor((k+1)*n/K)) — dense in
    // slice-allocation order, never an empty lane while K <= n. Custom
    // topologies go through setShardMapping() afterwards.
    for (std::size_t s = 0; s < cfg.numSlices; ++s)
        sliceShard[s] = static_cast<std::uint32_t>(
            (s * shardCount) / cfg.numSlices);
    rebuildLaneLists();
}

void
CmpSystem::setShardMapping(std::vector<std::uint32_t> mapping)
{
    assert(dirtySlices.empty() &&
           "setShardMapping must not interrupt an open batch window");
    if (mapping.size() != cfg.numSlices)
        throw std::invalid_argument(
            "setShardMapping: mapping names " +
            std::to_string(mapping.size()) + " slices, system has " +
            std::to_string(cfg.numSlices));
    for (const std::uint32_t lane : mapping)
        if (lane >= shardCount)
            throw std::invalid_argument(
                "setShardMapping: lane " + std::to_string(lane) +
                " out of range (shards = " + std::to_string(shardCount) +
                ")");
    sliceShard = std::move(mapping);
    rebuildLaneLists();
}

void
CmpSystem::rebuildLaneLists()
{
    laneSlices.assign(shardCount, {});
    for (std::size_t s = 0; s < sliceShard.size(); ++s)
        laneSlices[sliceShard[s]].push_back(
            static_cast<std::uint32_t>(s));
}

void
CmpSystem::flush()
{
    if (dirtySlices.empty())
        return;

    // Phase 1 — replay: slice-local directory work. Lanes own disjoint
    // slices (the sliceShard mapping; contiguous groups by default),
    // queues are fixed for the whole flush, and nothing here touches
    // the private caches, so running the lanes concurrently cannot
    // change any observable state.
    if (shardCount > 1 && dirtySlices.size() > 1) {
        for (std::size_t k = 1; k < shardCount; ++k) {
            if (shardDirty[k].empty())
                continue;
            shardGroup->run([this, k] {
                for (const std::uint32_t s : shardDirty[k])
                    replaySlice(s);
            });
        }
        for (const std::uint32_t s : shardDirty[0])
            replaySlice(s);
        shardGroup->wait(); // barrier between replay and apply
    } else {
        for (const std::uint32_t s : dirtySlices)
            replaySlice(s);
    }
    for (auto &list : shardDirty)
        list.clear();

    // Phase 2 — apply: cache invalidations and system counters, on the
    // calling thread in first-touch slice order with per-slice outcomes
    // in staging order — the exact call sequence of the serial driver.
    for (const std::uint32_t s : dirtySlices) {
        SliceQueue &queue = queues[s];
        queue.dirty = false;
        applyDirectoryOutcomes(
            s,
            std::span<const DirRequest>(queue.requests.data(),
                                        queue.requests.size()),
            contexts[s]);
        queue.removals.clear();
        queue.requests.clear();
    }
    dirtySlices.clear();
}

void
CmpSystem::replaySlice(std::size_t s)
{
    SliceQueue &queue = queues[s];
    Directory &dir = *slices[s];
    DirAccessContext &ctx = contexts[s];
    ctx.reset();
    // Replay the slice's operations in exact staging order: each
    // removal splits the requests into contiguous runs, and every run
    // between two removals goes through accessBatch at once. Outcomes
    // accumulate in the context — one per request, in request order —
    // for the apply phase.
    std::size_t next_request = 0;
    for (const StagedRemoval &removal : queue.removals) {
        if (removal.beforeRequest > next_request) {
            dir.accessBatch(std::span<const DirRequest>(
                                queue.requests.data() + next_request,
                                removal.beforeRequest - next_request),
                            ctx);
            next_request = removal.beforeRequest;
        }
        dir.removeSharer(removal.tag, removal.cache);
    }
    if (next_request < queue.requests.size()) {
        dir.accessBatch(std::span<const DirRequest>(
                            queue.requests.data() + next_request,
                            queue.requests.size() - next_request),
                        ctx);
    }
}

void
CmpSystem::applyDirectoryOutcomes(std::size_t slice,
                                  std::span<const DirRequest> requests,
                                  const DirAccessContext &ctx)
{
    assert(ctx.size() == requests.size() &&
           "every request must yield exactly one outcome");
    for (std::size_t i = 0; i < ctx.size(); ++i) {
        const DirAccessOutcome &out = ctx.outcome(i);
        const DirRequest &req = requests[i];

        // Timing: the apply phase runs serially in canonical order at
        // any shard count, so accounting here keeps latency histograms
        // bit-identical across --jobs x --shards for free.
        if (costs != nullptr)
            counters.latency.add(costs->accessLatency(req, out, ctx, slice));

        // Writes invalidate the other sharers' cached copies. The
        // directory already updated its own sharer state; caches are
        // invalidated silently (no removeSharer echo).
        if (out.hadSharerInvalidations) {
            const BlockAddr addr = addrOf(req.tag, slice);
            const DynamicBitset &targets = ctx.sharerInvalidations(out);
            targets.forEachSetBit([&](std::size_t c) {
                if (c == req.cache)
                    return;
                if (caches[c]->invalidate(addr))
                    ++counters.sharingInvalidations;
            });
        }

        // Forced evictions (set conflicts / Cuckoo give-up): the evicted
        // entries' blocks must leave the private caches to keep the
        // directory precise (§3.2).
        for (std::size_t e = 0; e < out.evictionCount; ++e) {
            const EvictedEntry &evicted = ctx.forcedEviction(out, e);
            const BlockAddr block = addrOf(evicted.tag, slice);
            evicted.targets.forEachSetBit([&](std::size_t c) {
                if (caches[c]->invalidate(block))
                    ++counters.forcedInvalidations;
            });
        }
    }
}

void
CmpSystem::access(const MemAccess &mem)
{
    stage(mem);
    flush();
}

std::uint64_t
CmpSystem::run(AccessSource &source, std::uint64_t count,
               std::uint64_t sample_every)
{
    const std::size_t window = std::max<std::size_t>(cfg.batchWindow, 1);
    std::size_t staged = 0;
    std::uint64_t executed = 0;
    while (executed < count && !source.exhausted()) {
        stage(source.next());
        ++executed;
        ++staged;
        const bool sample_due =
            sample_every != 0 && executed % sample_every == 0;
        // Probe boundaries force a flush so the capture sees the state
        // after *exactly* probe->accessesSeen() accesses — the serial
        // apply has retired everything staged so far, making the
        // snapshot independent of batch windowing position and shard
        // count.
        const bool probe_due =
            feedbackProbe != nullptr && feedbackProbe->tick();
        if (staged == window || sample_due || probe_due) {
            flush();
            staged = 0;
        }
        if (sample_due)
            sampleOccupancy();
        if (probe_due)
            feedbackProbe->capture(*this);
    }
    flush();
    return executed;
}

void
CmpSystem::sampleOccupancy()
{
    // Occupancy is a pure read of per-slice entry counts — and for the
    // mirroring organizations validEntries() walks the slice's frames,
    // so at large core counts one sample is real work. Shard the
    // reduction: partial integer sums per shard, merged in shard index
    // order (commutative, so the serial value is reproduced exactly).
    if (shardCount > 1) {
        for (std::size_t k = 1; k < shardCount; ++k) {
            shardGroup->run(
                [this, k] { shardOccupancy[k] = occupancySpan(k); });
        }
        shardOccupancy[0] = occupancySpan(0);
        shardGroup->wait();
        std::size_t valid = 0, total = 0;
        for (const auto &[shard_valid, shard_total] : shardOccupancy) {
            valid += shard_valid;
            total += shard_total;
        }
        counters.directoryOccupancy.add(
            total == 0 ? 0.0 : double(valid) / double(total));
        return;
    }
    counters.directoryOccupancy.add(currentOccupancy());
}

std::pair<std::size_t, std::size_t>
CmpSystem::occupancySpan(std::size_t shard) const
{
    std::size_t valid = 0, total = 0;
    for (const std::uint32_t s : laneSlices[shard]) {
        valid += slices[s]->validEntries();
        total += slices[s]->capacity();
    }
    return {valid, total};
}

std::size_t
CmpSystem::estimatedMemoryBytes() const
{
    std::size_t total = sizeof(*this);
    for (const auto &s : slices)
        total += s->memoryBytes();
    for (const auto &c : caches)
        total += c->memoryBytes();
    return total;
}

double
CmpSystem::currentOccupancy() const
{
    std::size_t valid = 0, total = 0;
    for (const auto &s : slices) {
        valid += s->validEntries();
        total += s->capacity();
    }
    return total == 0 ? 0.0 : double(valid) / double(total);
}

DirectoryStats
CmpSystem::aggregateDirectoryStats() const
{
    DirectoryStats agg;
    for (const auto &s : slices)
        agg.merge(s->stats());
    return agg;
}

Histogram
CmpSystem::aggregateAttemptHistogram() const
{
    Histogram merged(32);
    for (const auto &s : slices)
        merged.merge(s->stats().attemptHistogram);
    return merged;
}

void
CmpSystem::setCostModel(const CostModel *model)
{
    costs = model;
    if (costs != nullptr)
        counters.latency.preallocate();
}

void
CmpSystem::resetStats()
{
    counters = CmpStats{};
    if (costs != nullptr)
        counters.latency.preallocate();
    for (auto &s : slices)
        s->resetStats();
    if (feedbackProbe != nullptr)
        feedbackProbe->onStatsReset();
}

bool
CmpSystem::directoryCoversCaches() const
{
    // The invariant per resident block: its home slice tracks the tag
    // with a sharer set that names the holding cache. An *undersized*
    // sharer vector — a slice that cannot even name cache c — is a
    // coverage failure, never a silent pass.
    DynamicBitset probe_sharers;
    const auto covers = [this](CacheId cache, BlockAddr addr,
                               DynamicBitset &sharers) {
        if (!slices[sliceOf(addr)]->probe(tagOf(addr), &sharers))
            return false;
        return cache < sharers.size() && sharers.test(cache);
    };

    if (shardCount <= 1) {
        for (std::size_t c = 0; c < caches.size(); ++c)
            for (BlockAddr addr : caches[c]->residentAddresses())
                if (!covers(static_cast<CacheId>(c), addr,
                            probe_sharers))
                    return false;
        return true;
    }

    // Shard-aware: at large core counts the probe walk dominates, so
    // enumerate every cache's resident set once, bucket the blocks by
    // owning lane (the sliceShard mapping), and fan the probing out
    // over the persistent shard lanes. Lanes probe disjoint slice state, making
    // the fan-out race-free; only the scheduler is touched, hence the
    // const_cast.
    struct ResidentBlock
    {
        CacheId cache;
        BlockAddr addr;
    };
    std::vector<std::vector<ResidentBlock>> lane_work(shardCount);
    for (std::size_t c = 0; c < caches.size(); ++c)
        for (BlockAddr addr : caches[c]->residentAddresses())
            lane_work[shardOf(sliceOf(addr))].push_back(
                ResidentBlock{static_cast<CacheId>(c), addr});

    std::vector<char> covered(shardCount, 1);
    const auto laneCovers = [this, &lane_work,
                             &covers](std::size_t lane) {
        DynamicBitset sharers;
        for (const ResidentBlock &block : lane_work[lane])
            if (!covers(block.cache, block.addr, sharers))
                return false;
        return true;
    };
    auto *self = const_cast<CmpSystem *>(this);
    for (std::size_t k = 1; k < shardCount; ++k) {
        self->shardGroup->run([&laneCovers, &covered, k] {
            covered[k] = laneCovers(k) ? 1 : 0;
        });
    }
    covered[0] = laneCovers(0) ? 1 : 0;
    self->shardGroup->wait();
    return std::all_of(covered.begin(), covered.end(),
                       [](char ok) { return ok != 0; });
}

} // namespace cdir
