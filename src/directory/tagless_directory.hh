/**
 * @file
 * Tagless coherence directory (Zebchuk et al., MICRO'09 [43]; §3.3).
 *
 * Organized like a Duplicate-Tag directory, but each (set, cache) pair
 * stores a Bloom-filter row instead of explicit tags: a lookup reads one
 * bit column across all caches and reports the caches whose filters
 * match — a *superset* of the true sharers, so writes can send spurious
 * invalidations but never miss a sharer. The per-operation bit width
 * still scales with the number of caches, which is why Fig. 4/13 show
 * the same energy slope as Duplicate-Tag at a lower constant.
 *
 * Modeling notes (documented substitutions):
 *  - We use counting buckets so eviction notifications can clear state;
 *    the hardware instead exactly mirrors each small L1 set (rebuilding
 *    rows on update). Behaviourally both keep rows consistent with the
 *    caches.
 *  - On a write, the directory learns the true holders from the
 *    invalidation acks; we model that with an exact shadow map used
 *    only to keep the counters consistent. Reported invalidation
 *    targets always come from the (imprecise) filters, and the spurious
 *    extra targets are counted in spuriousInvalidations().
 *  - The shadow map is open-addressed with backward-shift deletion so
 *    steady-state insert/erase churn reuses slot storage instead of
 *    allocating map nodes (the allocation-free protocol contract).
 */

#ifndef CDIR_DIRECTORY_TAGLESS_DIRECTORY_HH
#define CDIR_DIRECTORY_TAGLESS_DIRECTORY_HH

#include <vector>

#include "directory/directory.hh"

namespace cdir {

/**
 * Open-addressed Tag -> DynamicBitset map with linear probing and
 * backward-shift deletion (no tombstones). Erasing swaps bitset storage
 * instead of destroying it, so once the table has grown to its
 * high-water size, insert/erase churn performs no heap allocation.
 */
class TagSharerMap
{
  public:
    /**
     * @param num_caches       bit width of every stored sharer set.
     * @param initial_capacity starting slot count (rounded to a power
     *                         of two; the table grows at 70% load).
     */
    explicit TagSharerMap(std::size_t num_caches,
                          std::size_t initial_capacity = 64);

    /** Sharer set for @p tag, or nullptr if absent. */
    DynamicBitset *find(Tag tag);
    const DynamicBitset *find(Tag tag) const;

    /**
     * Insert @p tag (must be absent) and return its cleared sharer set,
     * sized to the cache count.
     */
    DynamicBitset &insert(Tag tag);

    /** Remove @p tag if present. */
    void erase(Tag tag);

    /** Tracked tags. */
    std::size_t size() const { return used; }

    /** True iff @p tag is tracked. */
    bool contains(Tag tag) const { return find(tag) != nullptr; }

    /** Host bytes of the slot array plus owned bitset storage. */
    std::size_t
    memoryBytes() const
    {
        std::size_t total = slots.capacity() * sizeof(Slot);
        for (const Slot &slot : slots)
            total += slot.sharers.heapBytes();
        return total;
    }

  private:
    struct Slot
    {
        Tag tag = 0;
        bool occupied = false;
        DynamicBitset sharers;
    };

    std::size_t home(Tag tag) const;
    void grow();

    std::size_t caches;
    std::size_t used = 0;
    std::size_t mask;
    std::vector<Slot> slots;
};

/** Tagless (Bloom-filter grid) directory slice (see file comment). */
class TaglessDirectory : public Directory
{
  public:
    /**
     * @param num_caches  private caches tracked.
     * @param sets        slice sets (cacheSets / numSlices).
     * @param bucket_bits bits per Bloom-filter row (power of two).
     * @param num_grids   independent hash grids (filter depth k).
     * @param seed        hash seed.
     */
    TaglessDirectory(std::size_t num_caches, std::size_t sets,
                     std::size_t bucket_bits = 64, unsigned num_grids = 2,
                     std::uint64_t seed = 1);

    void access(const DirRequest &request, DirAccessContext &ctx) override;
    void removeSharer(Tag tag, CacheId cache) override;
    bool probe(Tag tag, DynamicBitset *sharers = nullptr) const override;
    std::size_t validEntries() const override { return shadow.size(); }
    std::size_t capacity() const override;
    std::string name() const override;

    /** Invalidations sent to caches that did not hold the block. */
    std::uint64_t spuriousInvalidations() const { return spurious; }

    std::size_t
    memoryBytes() const override
    {
        return sizeof(*this) +
               hashKeys.capacity() * sizeof(std::uint64_t) +
               counters.capacity() * sizeof(std::uint16_t) +
               shadow.memoryBytes() + scratchHolders.heapBytes();
    }

  private:
    std::size_t setIndex(Tag tag) const { return tag & indexMask; }
    std::size_t bucketIndex(unsigned grid, Tag tag) const;
    std::uint16_t &counter(unsigned grid, std::size_t set, CacheId cache,
                           std::size_t bucket);
    const std::uint16_t &counter(unsigned grid, std::size_t set,
                                 CacheId cache, std::size_t bucket) const;

    /** True iff @p cache's filters match @p tag (may be false positive). */
    bool filterMatch(Tag tag, CacheId cache) const;
    void filterAdd(Tag tag, CacheId cache);
    void filterRemove(Tag tag, CacheId cache);

    std::size_t sets;
    std::size_t bucketBits;
    unsigned grids;
    std::size_t indexMask;
    std::size_t bucketMask;
    std::vector<std::uint64_t> hashKeys;
    /** counters[grid][set][cache][bucket], flattened. */
    std::vector<std::uint16_t> counters;
    /** Exact sharers, modeling invalidation-ack knowledge. */
    TagSharerMap shadow;
    DynamicBitset scratchHolders; //!< per-access filter column read
    std::uint64_t spurious = 0;
};

} // namespace cdir

#endif // CDIR_DIRECTORY_TAGLESS_DIRECTORY_HH
