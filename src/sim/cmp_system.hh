/**
 * @file
 * Trace-driven CMP model: private caches + address-interleaved coherence
 * directory slices (Fig. 2).
 *
 * Two configurations from §2/§5 are supported:
 *
 *  - **Shared-L2**: each core has split I/D L1s; the directory tracks L1
 *    contents. The shared L2 itself needs no coherence (it is
 *    address-interleaved) and is not modelled — only the L1s determine
 *    directory behaviour.
 *  - **Private-L2**: each core has a private unified L2 (the L1s are
 *    included in it); the directory tracks L2 contents.
 *
 * The model is untimed: the paper's directory metrics (occupancy,
 * insertion attempts, forced invalidations) are functions of the
 * per-cache resident block sets over time, not of latencies. Coherence
 * follows an MSI-style discipline: a write to a block that is not
 * Modified consults the home directory, which invalidates the other
 * sharers; a directory-forced eviction invalidates every tracked copy.
 *
 * Address interleaving: slice = blockAddr mod numSlices; slices operate
 * on slice-local tags (blockAddr / numSlices), so a Duplicate-Tag
 * slice's low tag bits reproduce the private-cache set index (Fig. 3).
 *
 * Batched directory protocol: references are staged into per-slice
 * queues (sharer removals + DirRequests) and flushed through
 * Directory::accessBatch with one reusable DirAccessContext per slice,
 * so the steady-state loop performs zero heap allocations. With
 * CmpConfig::batchWindow == 1 (the default) every reference is flushed
 * immediately and behaviour is bit-identical to the historical serial
 * driver; larger windows treat the window's references as concurrent
 * across slices, while each slice replays its own removals and
 * accesses in exact staging order (accessBatch is driven over the
 * maximal request runs between removals, so an eviction staged after
 * its tag's insertion still retires the sharer). What a larger window
 * trades away is only the cross-reference feedback through the private
 * caches (invalidations land at run boundaries instead of between
 * references).
 *
 * Sharded execution (setShards): the physical directory is distributed —
 * every block address maps to exactly one slice, so slices never share
 * state — and the driver exploits that inside a single experiment.
 * Each flush of a batch window runs in two phases:
 *
 *  1. *Replay* (parallel): dirty slices are partitioned across shard
 *     lanes by the slice->lane mapping. The default is topology-aware:
 *     each lane owns one *contiguous* group of ~numSlices/shards slice
 *     ids, so a lane's slice state (directories, queues, contexts —
 *     allocated in slice order) stays dense in memory instead of
 *     striding shardCount-sized gaps the way the historical
 *     `slice mod shardCount` assignment did; setShardMapping() installs
 *     any custom mapping. Each lane drives its slices' staged removals
 *     and request runs through the slice-local directory and context in
 *     exact staging order. Lanes touch disjoint slice/queue/context
 *     state, so the phase is race-free by construction, and a TaskGroup
 *     barrier joins it.
 *  2. *Apply* (serial, canonical first-touch order): the recorded
 *     outcomes are applied to the private caches and system counters by
 *     the calling thread — the identical call sequence the serial
 *     driver performs, because cache invalidations never feed back into
 *     directory work within a flush (queues are fixed at flush time and
 *     directories are only read/written in phase 1).
 *
 * Per-slice statistics, cache state, and therefore every merged
 * experiment metric are bit-identical at any shard count *and any
 * slice->lane mapping* — phase 2 always applies outcomes serially in
 * the first-touch dirtySlices order, which no mapping affects; only
 * wall-clock changes. Parallelism within a window is bounded by the
 * window's dirty-slice count, so sharding pays off with batchWindow >>
 * 1 (cells use CmpConfig::batchWindow; the determinism contract is
 * per-window, not across window sizes). Shard dispatch allocates O(ns)
 * task handles per window; the zero-allocation guarantee continues to
 * hold for the serial (shards <= 1) driver and for all per-slice
 * simulation state.
 */

#ifndef CDIR_SIM_CMP_SYSTEM_HH
#define CDIR_SIM_CMP_SYSTEM_HH

#include <memory>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "directory/directory.hh"
#include "model/latency_histogram.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

namespace cdir {

class CostModel;
class SystemProbe;

/** Which §2 cache organization is simulated. */
enum class CmpConfigKind
{
    SharedL2,  //!< directory tracks split I/D private L1s
    PrivateL2, //!< directory tracks private unified L2s
};

/** Full system configuration (defaults follow Table 1, 16 cores). */
struct CmpConfig
{
    CmpConfigKind kind = CmpConfigKind::SharedL2;
    std::size_t numCores = 16;
    std::size_t numSlices = 16;

    /** Geometry of each tracked private cache. */
    CacheConfig privateCache{512, 2}; //!< 64KB, 2-way, 64B blocks

    /** Per-slice directory organization. */
    DirectoryParams directory;

    /**
     * References staged before the per-slice directory queues are
     * flushed. 1 (default) reproduces the serial driver exactly; larger
     * windows batch directory accesses per slice (see file comment).
     */
    std::size_t batchWindow = 1;

    /** Caches per core: 2 (I+D) for SharedL2, 1 for PrivateL2. */
    unsigned
    cachesPerCore() const
    {
        return kind == CmpConfigKind::SharedL2 ? 2u : 1u;
    }

    /** Total private caches the directory names. */
    std::size_t numCaches() const { return numCores * cachesPerCore(); }

    /** Aggregate tracked cache frames (the 1x provisioning baseline). */
    std::size_t
    aggregateFrames() const
    {
        return numCaches() * privateCache.capacityBlocks();
    }

    /** Table 1 configuration for @p kind at @p cores cores. */
    static CmpConfig paperConfig(CmpConfigKind kind,
                                 std::size_t cores = 16);
};

/** System-level counters accumulated by CmpSystem. */
struct CmpStats
{
    std::uint64_t accesses = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t writeUpgrades = 0;        //!< write hits on clean blocks
    std::uint64_t cacheEvictions = 0;
    std::uint64_t sharingInvalidations = 0; //!< blocks killed by writes
    std::uint64_t forcedInvalidations = 0;  //!< blocks killed by conflicts
    RunningMean directoryOccupancy;         //!< sampled (Fig. 8)
    /**
     * Modelled access latencies (cycles); empty unless a CostModel is
     * attached (CmpSystem::setCostModel) — a default-constructed
     * histogram owns no storage, so the stats block stays cheap when
     * timing is off.
     */
    LatencyHistogram latency;

    /**
     * Fold @p other into this accumulator (deterministic in any fixed
     * merge order); the counterpart of DirectoryStats::merge for
     * combining per-shard or per-system counter blocks.
     */
    void
    merge(const CmpStats &other)
    {
        accesses += other.accesses;
        cacheHits += other.cacheHits;
        cacheMisses += other.cacheMisses;
        writeUpgrades += other.writeUpgrades;
        cacheEvictions += other.cacheEvictions;
        sharingInvalidations += other.sharingInvalidations;
        forcedInvalidations += other.forcedInvalidations;
        directoryOccupancy.merge(other.directoryOccupancy);
        latency.merge(other.latency);
    }
};

/** The simulated CMP (see file comment). */
class CmpSystem
{
  public:
    /**
     * @throws std::invalid_argument for a mis-sized configuration:
     * non-power-of-two slice count, zero batch window, or a
     * cache-mirroring organization (Duplicate-Tag/Tagless) whose slice
     * count exceeds the private cache's sets — the very-large-system
     * geometry that would silently round to zero-set slices.
     */
    explicit CmpSystem(const CmpConfig &config);

    /** Drive one memory reference through the system. */
    void access(const MemAccess &access);

    /**
     * Drive from any AccessSource (a SyntheticSource, a trace reader, a
     * scenario) until @p count accesses have run or the source is
     * exhausted, sampling directory occupancy every @p sample_every
     * accesses (0 = never) into stats().directoryOccupancy.
     * @return accesses actually executed.
     */
    std::uint64_t run(AccessSource &source, std::uint64_t count,
                      std::uint64_t sample_every = 0);

    /**
     * Partition the slices across @p shards parallel execution lanes
     * (see file comment). 1 (the default) keeps the serial driver and
     * owns no threads; N > 1 spawns N-1 persistent workers — the
     * calling thread drives shard 0 — and is clamped to numSlices().
     * Results are bit-identical at every value; only wall-clock
     * changes. Must not be called while a batch window is open (i.e.
     * only between run()/access() calls).
     */
    void setShards(unsigned shards);

    /** Parallel execution lanes in force (1 = serial). */
    unsigned shards() const { return shardCount; }

    /**
     * Install an explicit slice->lane mapping (the topology hook).
     * setShards() installs the default contiguous-group mapping; call
     * this afterwards to override it — e.g. to co-locate slices by NUMA
     * domain or mesh quadrant. Results are bit-identical under any
     * mapping (see file comment); only locality/wall-clock changes.
     * @param mapping one lane id per slice; every id < shards().
     * @throws std::invalid_argument on a mis-sized mapping or an
     *         out-of-range lane id.
     */
    void setShardMapping(std::vector<std::uint32_t> mapping);

    /** Lane that owns @p slice under the mapping in force. */
    std::size_t shardOfSlice(std::size_t slice) const
    {
        return sliceShard[slice];
    }

    /**
     * Estimated host bytes of the simulated state: every directory
     * slice (Directory::memoryBytes) plus every private cache. This is
     * the dominant, deterministic part of the process footprint — the
     * RAM-budgeting number ext_scalability_sim reports per cell
     * alongside the (environmental) peak RSS.
     */
    std::size_t estimatedMemoryBytes() const;

    /**
     * Attach @p model (non-owning; nullptr detaches): every directory
     * access outcome is charged model->accessLatency() cycles into
     * stats().latency during the serial apply phase — canonical order
     * at any shard count, so the histogram is bit-identical at any
     * `--jobs` x `--shards` setting. With no model attached (the
     * default) the measure path is exactly the unmodelled driver: one
     * pointer test per outcome, no histogram storage.
     */
    void setCostModel(const CostModel *model);

    /** The attached cost model (nullptr = timing off). */
    const CostModel *costModel() const { return costs; }

    /**
     * Attach @p probe (non-owning; nullptr detaches): the
     * AccessSource-driven run loop counts every access into it and, at
     * each probe boundary, flushes the open batch window and lets the
     * probe capture the system state — after the serial apply phase,
     * so the published snapshot (and every feedback decision taken
     * from it) is bit-identical at any `--jobs` x `--shards` setting.
     * resetStats() re-baselines the probe's windowed deltas. With no
     * probe attached (the default) the run loop pays one pointer test
     * per access.
     */
    void setProbe(SystemProbe *probe) { feedbackProbe = probe; }

    /** The attached probe (nullptr = feedback off). */
    SystemProbe *probe() const { return feedbackProbe; }

    /** Sample aggregate directory occupancy once. */
    void sampleOccupancy();

    /** Aggregate occupancy over all slices right now. */
    double currentOccupancy() const;

    /** Sum of per-slice directory statistics. */
    DirectoryStats aggregateDirectoryStats() const;

    /** Merged attempt histogram across slices (Fig. 11). */
    Histogram aggregateAttemptHistogram() const;

    /** System counters. */
    const CmpStats &stats() const { return counters; }

    /** Reset system and per-slice statistics (state is kept). */
    void resetStats();

    /** Access to a slice (tests / diagnostics). */
    Directory &slice(std::size_t i) { return *slices[i]; }
    const Directory &slice(std::size_t i) const { return *slices[i]; }
    std::size_t numSlices() const { return slices.size(); }

    /** Access to a private cache (tests / diagnostics). */
    SetAssocCache &cache(std::size_t i) { return *caches[i]; }
    std::size_t numCaches() const { return caches.size(); }

    /** The configuration in force. */
    const CmpConfig &config() const { return cfg; }

    /**
     * Invariant check (tests): every resident private-cache block is
     * tracked by its home slice, with a sharer set large enough to name
     * the holding cache (an undersized sharer vector fails the check).
     * Shard-aware: with setShards(N > 1) the walk fans out across the
     * persistent shard lanes — each lane probes only the slices it owns
     * — so very large systems validate in parallel; the result is
     * identical at any shard count.
     * @return true iff the directory covers all cached blocks.
     */
    bool directoryCoversCaches() const;

  private:
    /** A sharer removal staged between two request runs. */
    struct StagedRemoval
    {
        /** Requests staged before this removal (its replay position). */
        std::uint32_t beforeRequest;
        Tag tag;
        CacheId cache;
    };

    /** Per-slice staged directory work for the current batch window. */
    struct SliceQueue
    {
        /** Removals, interleaved with the requests by beforeRequest. */
        std::vector<StagedRemoval> removals;
        /** Miss / upgrade requests driven through accessBatch. */
        std::vector<DirRequest> requests;
        /** Whether this slice is on the dirty list. */
        bool dirty = false;
    };

    CacheId cacheIdFor(CoreId core, bool instruction) const;
    std::size_t sliceOf(BlockAddr addr) const
    {
        return static_cast<std::size_t>(addr) & sliceMask;
    }
    Tag tagOf(BlockAddr addr) const { return addr >> sliceShift; }
    BlockAddr addrOf(Tag tag, std::size_t slice) const
    {
        return (tag << sliceShift) | slice;
    }

    /** Phase 1: private-cache access; stage directory work per slice. */
    void stage(const MemAccess &access);

    /** Put @p slice on the dirty list if it is not there yet. */
    void markDirty(std::size_t slice);

    /** Phases 2+3: drain every slice queue and apply the outcomes. */
    void flush();

    /**
     * Replay one dirty slice's staged removals and request runs through
     * its directory, accumulating every outcome into the slice context
     * (application deferred to applySliceOutcomes). Slice-local: safe to
     * run concurrently for distinct slices.
     */
    void replaySlice(std::size_t slice);

    /** Apply a replayed slice's batch outcomes to the private caches. */
    void applyDirectoryOutcomes(std::size_t slice,
                                std::span<const DirRequest> requests,
                                const DirAccessContext &ctx);

    /** Shard lane owning @p slice under the mapping in force. */
    std::size_t shardOf(std::size_t slice) const
    {
        return sliceShard[slice];
    }

    /** Rebuild the per-lane slice lists from sliceShard. */
    void rebuildLaneLists();

    /** (validEntries, capacity) summed over shard @p shard's slices. */
    std::pair<std::size_t, std::size_t>
    occupancySpan(std::size_t shard) const;

    CmpConfig cfg;
    std::size_t sliceMask;
    unsigned sliceShift;
    std::vector<std::unique_ptr<SetAssocCache>> caches;
    std::vector<std::unique_ptr<Directory>> slices;
    std::vector<SliceQueue> queues;
    /** Slices with staged work, in first-touch order. */
    std::vector<std::uint32_t> dirtySlices;
    std::vector<DirAccessContext> contexts; //!< one per slice, reused
    CmpStats counters;
    /** Attached timing model (non-owning; nullptr = timing off). */
    const CostModel *costs = nullptr;
    /** Attached feedback probe (non-owning; nullptr = feedback off). */
    SystemProbe *feedbackProbe = nullptr;

    // --- shard scheduler (see file comment; serial when shardCount <= 1) ---
    unsigned shardCount = 1;
    /** Lane id per slice (default: contiguous groups; see setShards). */
    std::vector<std::uint32_t> sliceShard;
    /** Slice ids owned by each lane (the mapping, inverted). */
    std::vector<std::vector<std::uint32_t>> laneSlices;
    /** Per-shard dirty-slice lists (subsequences of dirtySlices). */
    std::vector<std::vector<std::uint32_t>> shardDirty;
    /** Per-shard occupancy partial sums, merged in shard order. */
    std::vector<std::pair<std::size_t, std::size_t>> shardOccupancy;
    /** Pool of shardCount-1 workers; group declared first so the pool
     *  (destroyed first, joining its threads) can never outlive it. */
    std::unique_ptr<TaskGroup> shardGroup;
    std::unique_ptr<ThreadPool> shardPool;
};

} // namespace cdir

#endif // CDIR_SIM_CMP_SYSTEM_HH
