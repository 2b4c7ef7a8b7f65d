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
 * Directory protocol — directory work at access time; apply deferred
 * to the window's end. A reference runs in one pass: the private-cache
 * access, the victim's sharer removal at its home slice and the miss or
 * upgrade request at the home slice (§4.2: a slice handles a request
 * when it arrives). The request's outcome is recorded in one reusable
 * DirAccessContext, and {request, home slice} is appended to a pending
 * list. At the end of a batch window the pending outcomes are applied
 * in staging order: sharer and forced invalidations reach the private
 * caches, and the cost model charges each access. Both lists keep their
 * storage, so the steady-state loop performs zero heap allocations.
 *
 * CmpConfig::batchWindow == 1 (the default) ends the window after every
 * reference: the serial protocol. A larger window only lets
 * invalidations land at the window's end instead of between
 * references. Slices are independent and directory operations never
 * read private-cache state, so this gives the same directory state,
 * outcomes and counters as staging every slice's removals and requests
 * and replaying each slice in turn.
 *
 * Read-ahead: run() pulls accesses up to eight ahead of the one it
 * executes into a ring in its own frame, and as each enters the ring it
 * hints the reference's private-cache set (SetAssocCache::prefetch) and
 * home-slice set (Directory::prefetch) into the host cache, so the
 * dependent reads of consecutive references overlap instead of
 * stalling one after another. It never reads past the requested count,
 * past the source's exhaustion, or past the attached probe's next
 * boundary, so every source sees the same next()/exhausted() sequence
 * and every closed-loop decision is the same as without the ring. The
 * hints change no state.
 *
 * A CmpSystem is single-threaded; parallel sweeps (`--jobs`) run one
 * independent system per experiment cell, so every metric is
 * bit-identical at any `--jobs` setting.
 */

#ifndef CDIR_SIM_CMP_SYSTEM_HH
#define CDIR_SIM_CMP_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "directory/directory.hh"
#include "model/latency_histogram.hh"
#include "sim/interval_stats.hh"
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

/** The last CmpConfigKind enumerator (bounds checks of serialized values). */
inline constexpr CmpConfigKind kLastCmpConfigKind = CmpConfigKind::PrivateL2;

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
     * References per batch window. Directory work runs at access time;
     * the outcomes' invalidations and latencies are applied at the
     * window's end. 1 (default) is the serial driver (see file comment).
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
     * geometry that would silently round to zero-set slices — or a
     * geometry whose frames and directory entries need more than
     * kArenaReservationBytes (checked before anything is allocated).
     */
    explicit CmpSystem(const CmpConfig &config);

    /** Drive one memory reference through the system. */
    void access(const MemAccess &access);

    /**
     * Drive from any AccessSource (a SyntheticSource, a trace reader, a
     * scenario) until @p count accesses have run or the source is
     * exhausted, sampling directory occupancy every @p sample_every
     * accesses (0 = never) into stats().directoryOccupancy.
     *
     * Reads the source up to eight accesses ahead of the one executing
     * (file comment), bounded by @p count, by the source's exhaustion
     * and by the attached probe's next boundary: it never calls
     * next() more than @p count times, calls exhausted() before each
     * next() and not again once it returned true, and at every capture
     * has pulled exactly probe()->accessesSeen() accesses.
     * @return accesses actually executed.
     */
    std::uint64_t run(AccessSource &source, std::uint64_t count,
                      std::uint64_t sample_every = 0);

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
     * stats().latency as the window's outcomes are applied, in staging
     * order, so the histogram is bit-identical at any `--jobs` setting.
     * With no model attached (the default) the measure path is exactly
     * the unmodelled driver: one pointer test per outcome, no histogram
     * storage.
     */
    void setCostModel(const CostModel *model);

    /** The attached cost model (nullptr = timing off). */
    const CostModel *costModel() const { return costs; }

    /**
     * Attach @p probe (non-owning; nullptr detaches): the
     * AccessSource-driven run loop counts every access into it and, at
     * each probe boundary, flushes the open batch window and lets the
     * probe capture the system state — after the window's outcomes are
     * applied, so the published snapshot (and every feedback decision
     * taken from it) is bit-identical at any `--jobs` setting. resetStats()
     * re-baselines the probe's windowed deltas. With no probe attached
     * (the default) the run loop pays one pointer test per access.
     */
    void setProbe(SystemProbe *probe) { feedbackProbe = probe; }

    /** The attached probe (nullptr = feedback off). */
    SystemProbe *probe() const { return feedbackProbe; }

    /** Record currentOccupancy() into stats().directoryOccupancy. */
    void sampleOccupancy();

    /** Aggregate occupancy over all slices right now. */
    double currentOccupancy() const;

    /** Sum of per-slice directory statistics. */
    DirectoryStats aggregateDirectoryStats() const;

    /**
     * The one counter-window cut, shared by interval telemetry and the
     * feedback probe: @return the counter deltas since @p mark plus the
     * directory occupancy now, and advance @p mark to the current
     * cumulative counters. A default-constructed mark stands for the
     * counters right after resetStats(). The attempt sums are
     * integer-valued, so every delta is exact.
     */
    IntervalRecord cutInterval(IntervalRecord &mark) const;

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
     * @return true iff the directory covers all cached blocks.
     */
    bool directoryCoversCaches() const;

  private:
    /** A directory request whose outcome awaits the window's end. */
    struct PendingRequest
    {
        DirRequest request;
        std::size_t slice; //!< home slice
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

    /** Private-cache access and its directory work (file comment). */
    void stage(const MemAccess &access);

    /** Run @p request at @p slice; its outcome applies at flush(). */
    void request(std::size_t slice, const DirRequest &request);

    /** Apply every pending outcome in staging order, then reset. */
    void flush();

    /** Apply one outcome to the private caches and system counters. */
    void apply(const PendingRequest &pending, const DirAccessOutcome &out);

    CmpConfig cfg;
    std::size_t sliceMask;
    unsigned sliceShift;
    std::vector<std::unique_ptr<SetAssocCache>> caches;
    std::vector<std::unique_ptr<Directory>> slices;
    /** Requests of the open window, in staging order. */
    std::vector<PendingRequest> pending;
    /** Their outcomes, one per pending request (storage reused). */
    DirAccessContext context;
    CmpStats counters;
    /** Attached timing model (non-owning; nullptr = timing off). */
    const CostModel *costs = nullptr;
    /** Attached feedback probe (non-owning; nullptr = feedback off). */
    SystemProbe *feedbackProbe = nullptr;
};

} // namespace cdir

#endif // CDIR_SIM_CMP_SYSTEM_HH
