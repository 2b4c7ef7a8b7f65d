/**
 * @file
 * Sharer sets stored by value inside directory entries.
 *
 * The paper composes the Cuckoo *organization* with existing entry
 * formats (§6: "the Cuckoo organization dictates only the organization of
 * the directory itself, not the contents of each entry"): full bit
 * vectors [9], coarse/limited-pointer vectors [17,24], and hierarchical
 * two-level vectors [44,45]. The simulator models each format by what it
 * makes the protocol do — which caches a write or a forced eviction must
 * invalidate — and by the storage bits the analytical model charges for
 * it (sharerStorageBits()).
 *
 * Host encoding. Every entry holds one 16-byte SharerSet directly in its
 * organization's payload lane; everything that is the same for every
 * entry of a slice (format, cache count, coarse group size, pointer
 * budget) lives once in that slice's SharerStore, which performs every
 * operation on the sets it owns:
 *
 *  - up to 64 caches, the exact membership is one inline word, so a hit
 *    or a removal touches only the slot it probed — no heap, no virtual
 *    call, no pointer to follow;
 *  - above 64 caches, a set whose sharers all fall in one 64-cache span
 *    (every private block, for one) still keeps that span's word inline,
 *    with the span's index in the second word. The first sharer outside
 *    the span spills the set: the inline word then holds the address of
 *    a block of ceil(N/64) membership words, carved from per-slice
 *    chunks and recycled through a free list (steady-state churn stays
 *    allocation-free). A spilled set stays spilled until it empties or
 *    a write leaves one owner; an empty set owns no block.
 *
 * The three precise formats (FullVector, Compressed, Hierarchical) share
 * that encoding: their invalidation targets are the exact sharers, so
 * every simulated statistic is identical among them; they differ only in
 * sharerStorageBits(). CoarseVector keeps the same exact membership —
 * the exact sharer count hardware keeps to free an entry when its last
 * sharer evicts the block (§5.2) — plus coarse group bits in the low
 * bits of the second word. While the entry holds at most the pointer budget
 * (2 sharers) the group word is zero and targets are exact; the next
 * distinct sharer reinterprets the budget as a coarse vector in which
 * each bit stands for ceil(N / 2log2(N)) caches (Gupta et al. [17]; SGI
 * Origin [24]). Group bits are never cleared by a removal (another
 * sharer may map to the same group), so the entry stays coarse until it
 * empties.
 *
 * A SharerSet is a plain handle: organizations move it between slots
 * (Cuckoo displacement, Elbow relocation, stash parking) by copying its
 * 16 bytes, and each set is owned by exactly one live slot. An empty set
 * is all-zero, so a vacated slot never holds a stale spill block.
 */

#ifndef CDIR_SHARERS_SHARER_SET_HH
#define CDIR_SHARERS_SHARER_SET_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitset.hh"
#include "common/types.hh"

namespace cdir {

/** Available entry formats. */
enum class SharerFormat
{
    FullVector,    //!< one bit per cache (precise)
    CoarseVector,  //!< 2*log2(N) bits: limited pointers, coarse fallback
    Hierarchical,  //!< two-level bit vector (precise, cheaper storage)
    Compressed,    //!< word-packed full vector (precise, same storage)
};

/** The last SharerFormat enumerator (bounds checks of serialized values). */
inline constexpr SharerFormat kLastSharerFormat = SharerFormat::Compressed;

/** Storage bits per entry for @p format over @p num_caches caches. */
unsigned sharerStorageBits(SharerFormat format, std::size_t num_caches);

/** One directory entry's sharers (see file comment). */
class SharerSet
{
  public:
    /** True iff no cache holds the block. */
    bool empty() const { return word == 0; }

  private:
    friend class SharerStore;

    /** Inline membership word, or the spill-block address. */
    std::uint64_t word = 0;
    /**
     * CoarseVector group bits (0 while in exact pointer mode); above 64
     * caches also the inline word's span and the spilled flag.
     */
    std::uint64_t aux = 0;
};

static_assert(sizeof(SharerSet) <= 24, "an entry's sharers stay small");
static_assert(sizeof(SharerSet) == 16);
static_assert(sizeof(std::uintptr_t) <= sizeof(std::uint64_t));

/**
 * Per-slice sharer geometry plus the spill blocks of the slice's sets
 * (see file comment). Not copyable: every set it has spilled points into
 * its chunks.
 */
class SharerStore
{
  public:
    /**
     * @param format     entry format of every set in the slice.
     * @param num_caches private caches tracked (>= 1; >= 2 for Coarse).
     */
    SharerStore(SharerFormat format, std::size_t num_caches);

    SharerStore(const SharerStore &) = delete;
    SharerStore &operator=(const SharerStore &) = delete;

    /** Record that @p cache holds the block (idempotent). */
    void
    add(SharerSet &set, CacheId cache)
    {
        assert(cache < caches);
        if (spills) {
            addSpilled(set, cache);
            return;
        }
        const std::uint64_t bit = std::uint64_t{1} << cache;
        if ((set.word & bit) != 0)
            return;
        if (coarse)
            noteCoarseAdd(set, cache);
        set.word |= bit;
    }

    /**
     * Record that @p cache evicted the block.
     * @return true iff the set is now empty (it then owns no storage).
     */
    bool
    remove(SharerSet &set, CacheId cache)
    {
        assert(cache < caches);
        if (spills)
            return removeSpilled(set, cache);
        set.word &= ~(std::uint64_t{1} << cache);
        if (set.word != 0)
            return false;
        set.aux = 0; // a coarse entry returns to pointer mode
        return true;
    }

    /** Make @p cache the only sharer (a write's new owner). */
    void
    assign(SharerSet &set, CacheId cache)
    {
        assert(cache < caches);
        if (spills) {
            clear(set);
            addSpilled(set, cache);
            return;
        }
        set.word = std::uint64_t{1} << cache;
        set.aux = 0;
    }

    /** Drop every sharer, releasing any spill block. */
    void clear(SharerSet &set);

    /** Exact number of sharers. */
    std::size_t count(const SharerSet &set) const;

    /**
     * Caches that must receive an invalidation: the exact sharers, or
     * whole groups once a CoarseVector set has overflowed.
     * @param out resized to the cache count and overwritten.
     */
    void invalidationTargets(const SharerSet &set, DynamicBitset &out) const;

    /** Private caches tracked. */
    std::size_t numCaches() const { return caches; }

    /** Host bytes of the spill chunks (0 up to 64 caches). */
    std::size_t
    heapBytes() const
    {
        return chunks.size() * kBlocksPerChunk * wordsPerBlock *
               sizeof(std::uint64_t);
    }

  private:
    /** Spill blocks carved from one chunk allocation. */
    static constexpr std::size_t kBlocksPerChunk = 32;

    // SharerSet::aux layout: coarse group bits below kSpanShift, the
    // inline word's span in [kSpanShift, 63), the spilled flag in bit 63.
    static constexpr unsigned kSpanShift = 48;
    static constexpr std::uint64_t kGroupMask =
        (std::uint64_t{1} << kSpanShift) - 1;
    static constexpr std::uint64_t kSpilled = std::uint64_t{1} << 63;

    /** Membership words of a set: @p count words from span @p first. */
    struct Words
    {
        const std::uint64_t *data;
        std::size_t count;
        std::size_t first;
    };

    static bool
    isSpilled(const SharerSet &set)
    {
        return set.aux >= kSpilled;
    }

    static std::size_t
    spanOf(const SharerSet &set)
    {
        return static_cast<std::size_t>((set.aux & ~kSpilled) >> kSpanShift);
    }

    static std::uint64_t *
    blockOf(const SharerSet &set)
    {
        return reinterpret_cast<std::uint64_t *>(
            static_cast<std::uintptr_t>(set.word));
    }

    std::uint64_t
    groupBit(CacheId cache) const
    {
        return std::uint64_t{1} << (cache / cachesPerGroup);
    }

    Words membership(const SharerSet &set) const;

    /** CoarseVector bookkeeping before a new sharer @p cache joins. */
    void noteCoarseAdd(SharerSet &set, CacheId cache) const;

    void addSpilled(SharerSet &set, CacheId cache);
    bool removeSpilled(SharerSet &set, CacheId cache);

    /** A zeroed spill block (pops the free list, growing it by a chunk). */
    std::uint64_t *acquireBlock();
    void releaseBlock(std::uint64_t *block);

    std::size_t caches;
    bool spills;                 //!< more than 64 caches: sets may spill
    bool coarse;                 //!< CoarseVector format
    std::size_t wordsPerBlock;   //!< ceil(caches / 64)
    std::size_t pointerBudget;   //!< exact pointers before coarsening
    std::size_t cachesPerGroup;  //!< caches per coarse group bit

    std::vector<std::unique_ptr<std::uint64_t[]>> chunks;
    /** Free spill blocks, chained through each block's first word. */
    std::uint64_t *freeBlocks = nullptr;
};

} // namespace cdir

#endif // CDIR_SHARERS_SHARER_SET_HH
