/**
 * @file
 * Allocation-free batched directory access protocol.
 *
 * The simulation hot path performs millions of Directory accesses; the
 * original API returned a `DirAccessResult` that *owned* a
 * `std::vector<EvictedEntry>` and `DynamicBitset`s, heap-allocating on
 * every miss. This header replaces that with a caller-owned, reusable
 * `DirAccessContext`:
 *
 *  - the caller binds a context to the cache count once, then
 *    `reset()`s it between batches — storage is reused, never freed;
 *  - an organization appends one `DirAccessOutcome` per request via
 *    `beginOutcome()` and claims invalidation bitsets / evicted-entry
 *    records from the context's pools;
 *  - the consumer walks outcomes in request order and reads the claimed
 *    storage back through the context.
 *
 * Outcomes only index the context's pools, so one context can collect
 * requests to any number of slices that track the same caches: the CMP
 * driver keeps a single context for the whole system, fills it as each
 * reference reaches its home slice and applies and resets it at the end
 * of every batch window.
 *
 * After a warmup period grows every pool to its high-water size, the
 * steady-state protocol performs zero heap allocations per access.
 *
 * `DirAccessResult` survives as an *owning snapshot* for convenience
 * call sites (tests, examples) that want value semantics; it is produced
 * from a context via `DirAccessContext::snapshot()` and is not used on
 * the hot path.
 */

#ifndef CDIR_DIRECTORY_ACCESS_CONTEXT_HH
#define CDIR_DIRECTORY_ACCESS_CONTEXT_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/bitset.hh"
#include "common/types.hh"

namespace cdir {

/** One read- or write-miss reference presented to a directory slice. */
struct DirRequest
{
    Tag tag = 0;
    CacheId cache = 0;
    bool isWrite = false;
};

/** A directory entry evicted because of a conflict (forced eviction). */
struct EvictedEntry
{
    Tag tag = 0;
    /** Caches that must invalidate the block (superset of sharers). */
    DynamicBitset targets;
};

/**
 * Outcome of one directory access, recorded inside a DirAccessContext.
 * Plain flags plus indices into the context's pooled storage; copying it
 * never copies sharer vectors.
 */
struct DirAccessOutcome
{
    bool hit = false;          //!< tag was already tracked
    bool inserted = false;     //!< a new entry was allocated
    /**
     * The insertion procedure gave up (Cuckoo attempt bound) and
     * discarded an entry; the discarded entry is among the forced
     * evictions.
     */
    bool insertDiscarded = false;
    /** Write hit: caches (other than the requester) to invalidate. */
    bool hadSharerInvalidations = false;
    unsigned attempts = 0;     //!< insertion attempts (0 on hit)
    /** Position of this outcome in its context (== request index). */
    std::uint32_t index = 0;
    /** Range of this outcome's forced evictions in the context pool. */
    std::uint32_t evictionBegin = 0;
    std::uint32_t evictionCount = 0;
};

/**
 * Owning snapshot of one access outcome (legacy value-semantics API).
 * Convenient but allocating; not for the hot path.
 */
struct DirAccessResult
{
    bool hit = false;
    bool inserted = false;
    bool insertDiscarded = false;
    unsigned attempts = 0;
    bool hadSharerInvalidations = false;
    DynamicBitset sharerInvalidations;
    std::vector<EvictedEntry> forcedEvictions;
};

/** Reusable scratch + result storage for directory accesses. */
class DirAccessContext
{
  public:
    DirAccessContext() = default;

    /** Construct bound to slices tracking @p num_caches caches. */
    explicit DirAccessContext(std::size_t num_caches)
    {
        bind(num_caches);
    }

    /**
     * (Re-)bind to @p num_caches caches. Idempotent and cheap when the
     * count is unchanged; otherwise existing pooled bitsets are resized.
     */
    void
    bind(std::size_t num_caches)
    {
        if (caches == num_caches)
            return;
        caches = num_caches;
        for (auto &bits : invalidationPool)
            bits.reinit(caches);
        for (auto &entry : evictionPool)
            entry.targets.reinit(caches);
    }

    /** Caches the bound slice tracks. */
    std::size_t numCaches() const { return caches; }

    /**
     * Pre-grow every pool for @p outcome_count outcomes with up to
     * @p evictions_per_outcome forced evictions each, so a driver with
     * a known batch bound never allocates mid-run (all current
     * organizations evict at most one entry per insertion).
     */
    void
    reserve(std::size_t outcome_count, std::size_t evictions_per_outcome = 1)
    {
        outcomes.reserve(outcome_count);
        while (invalidationPool.size() < outcome_count)
            invalidationPool.emplace_back(caches);
        const std::size_t eviction_count =
            outcome_count * evictions_per_outcome;
        evictionPool.reserve(eviction_count);
        while (evictionPool.size() < eviction_count)
            evictionPool.push_back(EvictedEntry{0, DynamicBitset(caches)});
    }

    /** Drop all outcomes; every pool keeps its storage. */
    void
    reset()
    {
        outcomes.clear();
        evictionsUsed = 0;
    }

    // --- consumer side ---------------------------------------------------

    /** Outcomes recorded since the last reset(). */
    std::size_t size() const { return outcomes.size(); }
    bool empty() const { return outcomes.empty(); }

    /** The @p i-th outcome (request order). */
    const DirAccessOutcome &
    outcome(std::size_t i) const
    {
        assert(i < outcomes.size());
        return outcomes[i];
    }

    /** The most recent outcome. */
    const DirAccessOutcome &
    back() const
    {
        assert(!outcomes.empty());
        return outcomes.back();
    }

    /** Invalidation targets of @p o (valid iff hadSharerInvalidations). */
    const DynamicBitset &
    sharerInvalidations(const DirAccessOutcome &o) const
    {
        assert(o.index < invalidationPool.size());
        return invalidationPool[o.index];
    }

    /** The @p i-th forced eviction of outcome @p o. */
    const EvictedEntry &
    forcedEviction(const DirAccessOutcome &o, std::size_t i) const
    {
        assert(i < o.evictionCount);
        return evictionPool[o.evictionBegin + i];
    }

    /** Owning snapshot of outcome @p i (legacy value API; allocates). */
    DirAccessResult
    snapshot(std::size_t i) const
    {
        const DirAccessOutcome &o = outcome(i);
        DirAccessResult result;
        result.hit = o.hit;
        result.inserted = o.inserted;
        result.insertDiscarded = o.insertDiscarded;
        result.attempts = o.attempts;
        result.hadSharerInvalidations = o.hadSharerInvalidations;
        if (o.hadSharerInvalidations)
            result.sharerInvalidations = sharerInvalidations(o);
        result.forcedEvictions.reserve(o.evictionCount);
        for (std::size_t e = 0; e < o.evictionCount; ++e)
            result.forcedEvictions.push_back(forcedEviction(o, e));
        return result;
    }

    // --- producer side (directory organizations) -------------------------

    /**
     * Start the outcome for the next request. Every Directory::access
     * call appends exactly one outcome.
     */
    DirAccessOutcome &
    beginOutcome()
    {
        const auto index = static_cast<std::uint32_t>(outcomes.size());
        outcomes.emplace_back();
        DirAccessOutcome &out = outcomes.back();
        out.index = index;
        out.evictionBegin = static_cast<std::uint32_t>(evictionsUsed);
        return out;
    }

    /**
     * Invalidation-target bitset for @p o: cleared, sized to numCaches().
     * The caller sets o.hadSharerInvalidations if it ends up non-empty.
     */
    DynamicBitset &
    sharerTargets(DirAccessOutcome &o)
    {
        while (invalidationPool.size() <= o.index)
            invalidationPool.emplace_back(caches);
        DynamicBitset &bits = invalidationPool[o.index];
        if (bits.size() != caches)
            bits.reinit(caches);
        else
            bits.clear();
        return bits;
    }

    /**
     * Append a forced-eviction record to @p o (which must be the most
     * recent outcome). The record's targets come back cleared and sized
     * to numCaches().
     */
    EvictedEntry &
    appendEviction(DirAccessOutcome &o)
    {
        assert(!outcomes.empty() && &o == &outcomes.back() &&
               "evictions may only be appended to the current outcome");
        if (evictionsUsed == evictionPool.size())
            evictionPool.push_back(EvictedEntry{0, DynamicBitset(caches)});
        EvictedEntry &entry = evictionPool[evictionsUsed++];
        entry.tag = 0;
        if (entry.targets.size() != caches)
            entry.targets.reinit(caches);
        else
            entry.targets.clear();
        ++o.evictionCount;
        return entry;
    }

  private:
    std::size_t caches = 0;
    std::size_t evictionsUsed = 0;
    std::vector<DirAccessOutcome> outcomes;
    /** One invalidation bitset per outcome index (high-water storage). */
    std::vector<DynamicBitset> invalidationPool;
    /** Forced-eviction records shared by all outcomes (high-water). */
    std::vector<EvictedEntry> evictionPool;
};

} // namespace cdir

#endif // CDIR_DIRECTORY_ACCESS_CONTEXT_HH
