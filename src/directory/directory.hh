/**
 * @file
 * Coherence-directory interface shared by every organization.
 *
 * A directory slice tracks which private caches hold which block tags.
 * The CMP simulator drives slices through three operations that mirror
 * §4.2 of the paper:
 *
 *  - access(request, context): a read or write miss from a private
 *    cache arrives at the home slice. If the tag is present the sharer
 *    set is updated (a write also yields an invalidation vector for the
 *    other sharers). If absent, a new entry is inserted — possibly
 *    conflicting, displacing, or forcing the eviction of other entries
 *    depending on the organization.
 *  - removeSharer(tag, cache): a private cache evicted the block; the
 *    entry empties and becomes reusable when the last sharer leaves.
 *  - probe(tag): lookup without side effects.
 *
 * Results are recorded into a caller-owned, reusable DirAccessContext
 * (see access_context.hh); the CMP driver records a whole batch
 * window's outcomes in one context. accessBatch() drives a span of
 * requests through one context (trace replay, micro-benchmarks).
 * Call sites that want value semantics off the hot path take a
 * DirAccessResult snapshot via DirAccessContext::snapshot().
 *
 * Every organization reports the same statistics, so the Fig. 8-12
 * harnesses can iterate over organizations generically; each records
 * its lookups, hits, insertions, write targets and forced evictions
 * through Directory's protected helpers, the one place an event's
 * outcome flags and counters are written. The seven
 * organizations the paper compares are the rows of one fixed table in
 * directory.cc; makeDirectory() builds DirectoryParams::organization
 * from its row.
 */

#ifndef CDIR_DIRECTORY_DIRECTORY_HH
#define CDIR_DIRECTORY_DIRECTORY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitset.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "directory/access_context.hh"
#include "hash/hash_family.hh"
#include "sharers/sharer_set.hh"

namespace cdir {

/** Statistics common to all organizations. */
struct DirectoryStats
{
    std::uint64_t lookups = 0;          //!< access() calls
    std::uint64_t hits = 0;             //!< access() found the tag
    std::uint64_t insertions = 0;       //!< new entries allocated
    std::uint64_t sharerAdds = 0;       //!< sharer added to existing entry
    std::uint64_t writeUpgrades = 0;    //!< writes that invalidated sharers
    std::uint64_t sharerRemovals = 0;   //!< removeSharer() calls that hit
    std::uint64_t entryFrees = 0;       //!< entries emptied by last removal
    std::uint64_t forcedEvictions = 0;  //!< entries evicted by conflicts
    /** Cached blocks invalidated by forced evictions (sum of targets). */
    std::uint64_t forcedBlockInvalidations = 0;
    /** Insertions that exhausted the attempt budget (Cuckoo only). */
    std::uint64_t insertFailures = 0;
    RunningMean insertionAttempts;  //!< attempts per new-entry insertion
    Histogram attemptHistogram{kAttemptHistogramMax}; //!< Fig. 11

    /** Forced invalidation rate: forced evictions per insertion. */
    double
    forcedInvalidationRate() const
    {
        return insertions == 0
                   ? 0.0
                   : double(forcedEvictions) / double(insertions);
    }

    /**
     * Fold @p other into this accumulator — the deterministic merge the
     * CMP driver uses to aggregate per-slice statistics:
     * integer counters sum, the attempt mean merges exactly, and the
     * histogram buckets accumulate. Merging in any fixed order yields
     * the same aggregate.
     */
    void
    merge(const DirectoryStats &other)
    {
        lookups += other.lookups;
        hits += other.hits;
        insertions += other.insertions;
        sharerAdds += other.sharerAdds;
        writeUpgrades += other.writeUpgrades;
        sharerRemovals += other.sharerRemovals;
        entryFrees += other.entryFrees;
        forcedEvictions += other.forcedEvictions;
        forcedBlockInvalidations += other.forcedBlockInvalidations;
        insertFailures += other.insertFailures;
        insertionAttempts.merge(other.insertionAttempts);
        attemptHistogram.merge(other.attemptHistogram);
    }

    void
    reset()
    {
        *this = DirectoryStats{};
    }
};

/** Abstract coherence-directory slice (see file comment). */
class Directory
{
  public:
    /** @param num_caches private caches this slice can name. */
    explicit Directory(std::size_t num_caches) : caches(num_caches) {}
    virtual ~Directory() = default;

    /**
     * Handle one read or write miss; append exactly one outcome (plus
     * any claimed invalidation/eviction storage) to @p ctx. See the
     * file comment for semantics.
     */
    virtual void access(const DirRequest &request,
                        DirAccessContext &ctx) = 0;

    /**
     * Handle a span of requests in order, accumulating one outcome per
     * request into @p ctx: access() on each request in turn.
     */
    void accessBatch(std::span<const DirRequest> requests,
                     DirAccessContext &ctx);

    /** Private cache @p cache evicted block @p tag. */
    virtual void removeSharer(Tag tag, CacheId cache) = 0;

    /**
     * Side-effect-free lookup.
     * @param tag     block tag to find.
     * @param sharers if non-null and found, receives the (possibly
     *                imprecise) sharer targets.
     * @return true iff the tag is tracked.
     */
    virtual bool probe(Tag tag, DynamicBitset *sharers = nullptr) const = 0;

    /**
     * Hint that a request or removal for @p tag is about to arrive:
     * prefetch the host lines its lookup will read. A pure hint — it
     * changes no state, statistic or outcome, so calling it or not
     * leaves every run bit-identical. The default does nothing. Only
     * the set-major slices (Modulo-indexed: Sparse, In-Cache) override
     * it, where the set is a mask of the tag. A hashed organization
     * (Cuckoo, Skewed, Elbow) would hash every tag a second time to
     * find its candidates, and its 16-core slices (under 1 MiB in all
     * for the paper's Cuckoo 4x512) leave the host's L2 little miss to
     * hide.
     */
    virtual void prefetch(Tag /*tag*/) const {}

    /** Currently valid entries. */
    virtual std::size_t validEntries() const = 0;

    /** Total entry slots. */
    virtual std::size_t capacity() const = 0;

    /** Human-readable organization name for reports. */
    virtual std::string name() const = 0;

    /**
     * Estimated host-process bytes this slice occupies: the slice
     * object, its table arrays (at vector capacity, sharer sets
     * included), and any spilled sharer blocks. This is *simulator*
     * footprint for RAM budgeting (ExperimentResult::estimatedBytes),
     * not the modelled hardware storage — that is sharerStorageBits()
     * and the analytical model. Deterministic for a given access
     * history, so it is safe to serialize in campaign results.
     */
    virtual std::size_t memoryBytes() const = 0;

    /** A context correctly bound for this slice. */
    DirAccessContext makeContext() const { return DirAccessContext(caches); }

    /** Fraction of slots in use. */
    double
    occupancy() const
    {
        return capacity() == 0
                   ? 0.0
                   : double(validEntries()) / double(capacity());
    }

    /** Number of private caches tracked. */
    std::size_t numCaches() const { return caches; }

    /** Accumulated statistics. */
    const DirectoryStats &stats() const { return statistics; }

    /** Reset accumulated statistics (entries stay). */
    void resetStats() { statistics.reset(); }

  protected:
    // Event bookkeeping (file comment): each helper writes one event
    // into the outcome and the statistics together.

    /** Start the outcome of the next access in @p ctx; count a lookup. */
    DirAccessOutcome &
    beginAccess(DirAccessContext &ctx)
    {
        ++statistics.lookups;
        return ctx.beginOutcome();
    }

    /** The access found its tag tracked. */
    void
    recordHit(DirAccessOutcome &out)
    {
        out.hit = true;
        ++statistics.hits;
    }

    /** A new entry was allocated after @p attempts insertion attempts. */
    void
    recordInsertion(DirAccessOutcome &out, unsigned attempts)
    {
        out.inserted = true;
        out.attempts = attempts;
        ++statistics.insertions;
        statistics.insertionAttempts.add(attempts);
        statistics.attemptHistogram.add(attempts);
    }

    /**
     * Write @p request's invalidation vector @p targets (claimed from
     * the context for @p out, filled with every cache that may hold the
     * block): drop the requester, and if any cache remains flag @p out
     * and count a write upgrade. @return true iff any cache remains.
     */
    bool
    recordWriteTargets(const DirRequest &request, DynamicBitset &targets,
                       DirAccessOutcome &out)
    {
        if (request.cache < targets.size() && targets.test(request.cache))
            targets.reset(request.cache);
        if (targets.none())
            return false;
        out.hadSharerInvalidations = true;
        ++statistics.writeUpgrades;
        return true;
    }

    /**
     * Evict entry @p tag by force: append its record to @p out, let
     * @p fill(targets) name the caches that must drop the block, and
     * count the eviction and the blocks it invalidates.
     */
    template <typename Fill>
    void
    recordForcedEviction(DirAccessContext &ctx, DirAccessOutcome &out,
                         Tag tag, Fill &&fill)
    {
        EvictedEntry &evicted = ctx.appendEviction(out);
        evicted.tag = tag;
        fill(evicted.targets);
        ++statistics.forcedEvictions;
        statistics.forcedBlockInvalidations += evicted.targets.count();
    }

    /**
     * Shared hit-path update of entry sharers @p set (kept by
     * @p store): a write collects an invalidation vector for the other
     * sharers (claimed from @p ctx) and leaves the writer as sole owner;
     * a read adds a sharer.
     */
    void updateEntryOnHit(SharerStore &store, SharerSet &set,
                          const DirRequest &request, DirAccessContext &ctx,
                          DirAccessOutcome &out);

    std::size_t caches;
    DirectoryStats statistics;
};

/** Configuration for building any directory organization. */
struct DirectoryParams
{
    /** Name of the organization to build ("Cuckoo", "Sparse", ...;
     *  see directoryOrganizations()). */
    std::string organization = "Cuckoo";
    std::size_t numCaches = 16;
    unsigned ways = 4;            //!< associativity / cuckoo arity
    std::size_t sets = 512;       //!< sets (per way for Cuckoo/Skewed)
    SharerFormat format = SharerFormat::FullVector;
    HashKind hash = HashKind::Skewing;  //!< Cuckoo/Skewed indexing
    unsigned maxAttempts = 32;    //!< Cuckoo insertion bound (§4.2)
    /** Elements per Cuckoo bucket (Panigrahy [30]; 1 = paper design). */
    unsigned bucketSlots = 1;
    /** Overflow-stash entries (Kirsch et al. [22]; 0 = paper design,
     *  which discards overflow instead, §6). */
    unsigned stashEntries = 0;
    std::uint64_t hashSeed = 1;
    /** DuplicateTag/Tagless: associativity of each tracked cache. */
    unsigned trackedCacheAssoc = 2;
    /** Tagless: bits per Bloom-filter bucket row. */
    std::size_t taglessBucketBits = 64;

    /** Total entry capacity implied by the parameters. */
    std::size_t totalEntries() const;
};

/** Structural properties consumers need before construction. */
struct DirectoryTraits
{
    /**
     * Slice geometry mirrors the tracked caches' sets (Fig. 3):
     * the driver derives `sets` from the private-cache geometry instead
     * of taking it from DirectoryParams (DuplicateTag, Tagless).
     */
    bool mirrorsTrackedCaches = false;
    /**
     * Capacity scales with DirectoryParams::bucketSlots (bucketized
     * Cuckoo tables); used by DirectoryParams::totalEntries().
     */
    bool usesBucketSlots = false;
};

/** Names of the seven organizations, sorted (the table's row order). */
std::vector<std::string> directoryOrganizations();

/**
 * Traits of organization @p name.
 * @throws std::invalid_argument naming the known organizations if
 *         @p name is not one of them.
 */
const DirectoryTraits &directoryTraits(std::string_view name);

/**
 * Build a directory slice for @p params from the row of
 * `params.organization`.
 * @throws std::invalid_argument as directoryTraits() for an unknown
 *         organization name, or for ways outside 1..kMaxProbeWays in a
 *         way-probed organization.
 */
std::unique_ptr<Directory> makeDirectory(const DirectoryParams &params);

} // namespace cdir

#endif // CDIR_DIRECTORY_DIRECTORY_HH
