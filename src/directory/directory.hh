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
 * DirAccessResult snapshot via DirAccessContext::snapshot() (the
 * historical value-returning access() shim has been removed).
 *
 * Every organization reports the same statistics, so the Fig. 8-12
 * harnesses can iterate over organizations generically. Organizations
 * are constructed through the string-keyed DirectoryRegistry (see
 * registry.hh); each organization self-registers a builder over
 * DirectoryParams from its own translation unit.
 */

#ifndef CDIR_DIRECTORY_DIRECTORY_HH
#define CDIR_DIRECTORY_DIRECTORY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
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
    /** Registry name of the organization to build ("Cuckoo", "Sparse",
     *  ...; see DirectoryRegistry::names()). */
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

/**
 * Build a directory slice for @p params through the DirectoryRegistry.
 * @throws std::invalid_argument for an unknown organization name.
 */
std::unique_ptr<Directory> makeDirectory(const DirectoryParams &params);

} // namespace cdir

#endif // CDIR_DIRECTORY_DIRECTORY_HH
