#include "sim/cmp_system.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "common/arena.hh"
#include "common/bit_util.hh"
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

namespace {

/**
 * Reject a geometry whose arrays cannot fit in one arena before any is
 * allocated: its lower bound is every private-cache frame plus, per
 * directory entry, the smallest slot any organization stores (a tag
 * and a sharer set). A mirroring organization's slices take their sets
 * from the caches, so the frames bound them. Sets or ways outside the
 * slices' own bounds are left to their constructors' messages.
 */
void
checkFootprint(const CmpConfig &cfg, bool mirrors)
{
    const DirectoryParams &dir = cfg.directory;
    if (dir.sets > kMaxDirectorySets || dir.ways > kMaxProbeWays)
        return;
    const double entries =
        mirrors ? 0.0 : double(cfg.numSlices) * double(dir.totalEntries());
    const double bytes =
        double(cfg.numCaches()) * double(cfg.privateCache.capacityBlocks()) *
            double(sizeof(SetAssocCache::Frame)) +
        entries * double(sizeof(Tag) + sizeof(SharerSet));
    if (bytes <= double(kArenaReservationBytes))
        return;
    char need[32];
    std::snprintf(need, sizeof(need), "%.0f", bytes);
    throw std::invalid_argument(
        "CmpConfig: " + std::to_string(cfg.numSlices) +
        " directory slices of " + std::to_string(dir.ways) + " ways x " +
        std::to_string(dir.sets) + " sets need at least " + need +
        " bytes, more than the " + std::to_string(kArenaReservationBytes) +
        "-byte arena reservation");
}

} // namespace

CmpSystem::CmpSystem(const CmpConfig &config) : cfg(config)
{
    const ArenaScope arena; // every line-aligned array below: huge pages
    if (cfg.numSlices == 0 || !isPowerOfTwo(cfg.numSlices))
        throw std::invalid_argument(
            "CmpConfig: numSlices must be a power of two (got " +
            std::to_string(cfg.numSlices) + ")");
    if (cfg.batchWindow < 1)
        throw std::invalid_argument("CmpConfig: batchWindow must be >= 1");
    const bool mirrors =
        directoryTraits(cfg.directory.organization).mirrorsTrackedCaches;
    checkFootprint(cfg, mirrors);
    sliceMask = cfg.numSlices - 1;
    sliceShift = floorLog2(cfg.numSlices);

    const std::size_t n_caches = cfg.numCaches();
    caches.reserve(n_caches);
    for (std::size_t i = 0; i < n_caches; ++i)
        caches.push_back(std::make_unique<SetAssocCache>(cfg.privateCache));

    DirectoryParams dir = cfg.directory;
    dir.numCaches = n_caches;
    dir.trackedCacheAssoc = cfg.privateCache.assoc;
    if (mirrors) {
        // These organizations mirror the tracked caches' sets; a slice
        // covers cacheSets / numSlices of them (Fig. 3). A very large
        // system whose slice count exceeds the private cache's sets
        // would round that to *zero* sets per slice — a mis-sized
        // directory that used to slip through silently in release
        // builds (the former assert); reject it explicitly.
        if (cfg.privateCache.numSets < cfg.numSlices)
            throw std::invalid_argument(
                "CmpConfig: organization '" + dir.organization +
                "' mirrors the tracked caches, but numSlices (" +
                std::to_string(cfg.numSlices) +
                ") exceeds the private cache's sets (" +
                std::to_string(cfg.privateCache.numSets) +
                ") — each slice would cover zero sets");
        dir.sets = cfg.privateCache.numSets / cfg.numSlices;
    }
    slices.reserve(cfg.numSlices);
    for (std::size_t s = 0; s < cfg.numSlices; ++s) {
        dir.hashSeed = cfg.directory.hashSeed + s;
        slices.push_back(makeDirectory(dir));
    }
    // The pending list and context grow to their high-water mark during
    // warmup, never in proportion to batchWindow up front.
    context.bind(n_caches);
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
    assert(mem.addr != kVacantTag && "reserved block address");
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
            request(home, DirRequest{tag, cache_id, true});
        }
        return;
    }

    ++counters.cacheMisses;

    // The cache's eviction reaches the directory before this miss's
    // request (it is what keeps Duplicate-Tag slices exactly mirroring
    // the caches).
    if (res.victim) {
        ++counters.cacheEvictions;
        const BlockAddr victim = *res.victim;
        slices[sliceOf(victim)]->removeSharer(tagOf(victim), cache_id);
    }

    request(home, DirRequest{tag, cache_id, mem.write});
}

void
CmpSystem::request(std::size_t slice, const DirRequest &req)
{
    slices[slice]->access(req, context);
    pending.push_back(PendingRequest{req, slice});
}

void
CmpSystem::flush()
{
    assert(context.size() == pending.size() &&
           "every request must yield exactly one outcome");
    for (std::size_t i = 0; i < pending.size(); ++i)
        apply(pending[i], context.outcome(i));
    pending.clear();
    context.reset();
}

void
CmpSystem::apply(const PendingRequest &pending_request,
                 const DirAccessOutcome &out)
{
    const DirRequest &req = pending_request.request;
    const std::size_t slice = pending_request.slice;

    // Timing: outcomes apply in staging order, so accounting here keeps
    // latency histograms bit-identical across --jobs for free.
    if (costs != nullptr)
        counters.latency.add(costs->accessLatency(req, out, context, slice));

    // Writes invalidate the other sharers' cached copies. The directory
    // already updated its own sharer state; caches are invalidated
    // silently (no removeSharer echo).
    if (out.hadSharerInvalidations) {
        const BlockAddr addr = addrOf(req.tag, slice);
        const DynamicBitset &targets = context.sharerInvalidations(out);
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
        const EvictedEntry &evicted = context.forcedEviction(out, e);
        const BlockAddr block = addrOf(evicted.tag, slice);
        evicted.targets.forEachSetBit([&](std::size_t c) {
            if (caches[c]->invalidate(block))
                ++counters.forcedInvalidations;
        });
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
    // Accesses pulled from the source ahead of the one executing: slot
    // i % kReadAhead holds access i. The ring stays in this frame, so
    // it adds nothing to the system's footprint.
    constexpr std::uint64_t kReadAhead = 8;
    MemAccess ahead[kReadAhead];
    std::uint64_t fetched = 0;
    bool dry = false; // the source reported exhausted(); never asked again

    const std::size_t window = cfg.batchWindow;
    std::size_t staged = 0;
    // Accesses left until the next occupancy sample; with sampling off
    // the count starts where no run reaches zero.
    std::uint64_t until_sample =
        sample_every != 0 ? sample_every : ~std::uint64_t{0};
    std::uint64_t executed = 0;
    for (;;) {
        // Read ahead, but never past count nor past the next probe
        // boundary: a closed-loop source steers on the capture taken
        // there, so it must not be asked for the access after it until
        // that capture is published.
        std::uint64_t horizon = std::min(count, executed + kReadAhead);
        if (feedbackProbe != nullptr) {
            const std::uint64_t interval = feedbackProbe->intervalAccesses();
            horizon = std::min(horizon,
                               executed + interval -
                                   feedbackProbe->accessesSeen() % interval);
        }
        for (; fetched < horizon && !dry; ++fetched) {
            if (source.exhausted()) {
                dry = true;
                break;
            }
            const MemAccess &mem = ahead[fetched % kReadAhead] = source.next();
            caches[cacheIdFor(mem.core, mem.instruction)]->prefetch(mem.addr);
            slices[sliceOf(mem.addr)]->prefetch(tagOf(mem.addr));
        }
        if (executed == fetched)
            break;
        stage(ahead[executed % kReadAhead]);
        ++executed;
        ++staged;
        const bool sample_due = --until_sample == 0;
        // Probe boundaries force a flush so the capture sees the state
        // after *exactly* probe->accessesSeen() accesses — every
        // outcome staged so far has been applied, making the snapshot
        // independent of batch windowing position.
        const bool probe_due =
            feedbackProbe != nullptr && feedbackProbe->tick();
        if (staged == window || sample_due || probe_due) {
            flush();
            staged = 0;
        }
        if (sample_due) {
            sampleOccupancy();
            until_sample = sample_every;
        }
        if (probe_due)
            feedbackProbe->capture(*this);
    }
    flush();
    return executed;
}

void
CmpSystem::sampleOccupancy()
{
    counters.directoryOccupancy.add(currentOccupancy());
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

IntervalRecord
CmpSystem::cutInterval(IntervalRecord &mark) const
{
    const DirectoryStats dir = aggregateDirectoryStats();
    IntervalRecord now;
    now.accesses = counters.accesses;
    now.cacheMisses = counters.cacheMisses;
    now.insertions = dir.insertions;
    now.attemptSum =
        static_cast<std::uint64_t>(dir.insertionAttempts.sum());
    now.insertionAttemptCount = dir.insertionAttempts.count();
    now.forcedEvictions = dir.forcedEvictions;
    now.sharingInvalidations = counters.sharingInvalidations;
    now.forcedInvalidations = counters.forcedInvalidations;
    now.latency = counters.latency;

    IntervalRecord window = now;
    window.accesses -= mark.accesses;
    window.cacheMisses -= mark.cacheMisses;
    window.insertions -= mark.insertions;
    window.attemptSum -= mark.attemptSum;
    window.insertionAttemptCount -= mark.insertionAttemptCount;
    window.forcedEvictions -= mark.forcedEvictions;
    window.sharingInvalidations -= mark.sharingInvalidations;
    window.forcedInvalidations -= mark.forcedInvalidations;
    window.latency.subtract(mark.latency); // exact bucket-wise difference
    for (const auto &s : slices) {
        window.occupiedEntries += s->validEntries();
        window.capacityEntries += s->capacity();
    }
    mark = std::move(now);
    return window;
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
    DynamicBitset sharers;
    for (std::size_t c = 0; c < caches.size(); ++c) {
        for (BlockAddr addr : caches[c]->residentAddresses()) {
            if (!slices[sliceOf(addr)]->probe(tagOf(addr), &sharers) ||
                c >= sharers.size() || !sharers.test(c))
                return false;
        }
    }
    return true;
}

} // namespace cdir
