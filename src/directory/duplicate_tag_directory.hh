/**
 * @file
 * Duplicate-Tag directory [7,16,43] (§3.1).
 *
 * Mirrors the tag arrays of every tracked private cache: a slice holds,
 * for each of its sets, one tag frame per (cache, cache-way). Because
 * the mirrored frame always exists, the organization never runs out of
 * space — but a lookup must compare *all* caches x assoc tags in the
 * set (332-wide in OpenSPARC T2), which is what makes its energy grow
 * linearly per slice and quadratically in aggregate (Fig. 4).
 *
 * A slice covers a subset of the private-cache sets (Fig. 3): with S
 * interleaved slices, slice tags are block addresses shifted right by
 * log2(S), and the slice's set count is cacheSets / S so the low tag
 * bits reproduce the cache set index exactly.
 *
 * Frames are stored structure-of-arrays: a set's caches x assoc tags
 * are one contiguous, 64-byte-aligned 8B-per-entry run (an empty frame
 * holds kVacantTag), so the wide associative compare reduces the whole
 * set with the branchless match-mask kernel in 64-frame chunks — the
 * software analogue of the massively parallel comparator bank the
 * organization implies in hardware.
 */

#ifndef CDIR_DIRECTORY_DUPLICATE_TAG_DIRECTORY_HH
#define CDIR_DIRECTORY_DUPLICATE_TAG_DIRECTORY_HH

#include <vector>

#include "common/bit_util.hh"
#include "directory/directory.hh"

namespace cdir {

/** Duplicate-Tag directory slice (see file comment). */
class DuplicateTagDirectory : public Directory
{
  public:
    /**
     * @param num_caches  private caches mirrored.
     * @param sets        sets in this slice (cacheSets / numSlices).
     * @param cache_assoc associativity of each mirrored cache.
     */
    DuplicateTagDirectory(std::size_t num_caches, std::size_t sets,
                          unsigned cache_assoc);

    void access(const DirRequest &request, DirAccessContext &ctx) override;
    void removeSharer(Tag tag, CacheId cache) override;
    bool probe(Tag tag, DynamicBitset *sharers = nullptr) const override;
    std::size_t validEntries() const override { return occupied; }
    std::size_t capacity() const override { return tags.size(); }
    std::string name() const override;

    /** Directory associativity: caches x cache ways (§3.1). */
    unsigned lookupWidth() const
    {
        return static_cast<unsigned>(caches) * cacheAssoc;
    }

    std::size_t
    memoryBytes() const override
    {
        return sizeof(*this) + tags.capacity() * sizeof(Tag) +
               lastUses.capacity() * sizeof(std::uint64_t) +
               chunkValid.capacity() * sizeof(std::uint32_t) +
               scratchHolders.heapBytes();
    }

  private:
    std::size_t setIndex(Tag tag) const { return tag & indexMask; }

    /** Flat index of the first frame of @p cache's region in @p set. */
    std::size_t regionBase(std::size_t set, CacheId cache) const
    {
        return (set * caches + cache) * cacheAssoc;
    }

    /**
     * Wide associative compare over one set: sets bit c of @p holders
     * for every cache with a frame holding @p tag.
     */
    void collectHolders(std::size_t set, Tag tag,
                        DynamicBitset &holders) const;

    /** Chunk summary slot of frame offset @p off within @p set. */
    std::size_t
    chunkIndex(std::size_t set, std::size_t off) const
    {
        return set * chunksPerSet + off / kKernelWidth;
    }

    /** Bookkeep a frame of global @p index filling or emptying. */
    void
    noteValidChange(std::size_t index, bool now_valid)
    {
        const std::size_t width = std::size_t{caches} * cacheAssoc;
        const std::size_t set = index / width;
        std::uint32_t &count = chunkValid[chunkIndex(set, index % width)];
        if (now_valid)
            ++count;
        else
            --count;
    }

    std::size_t sets;
    unsigned cacheAssoc;
    std::size_t indexMask;
    std::size_t chunksPerSet;
    LineAlignedVector<Tag> tags;         //!< SoA tag lane
    std::vector<std::uint64_t> lastUses; //!< SoA LRU lane
    /**
     * Per-set occupancy summary: occupied-frame count of each 64-frame
     * kernel chunk, maintained whenever a frame fills or empties. The wide
     * compare and the existence probe skip zero-count chunks — an empty
     * region cannot match, so skipping is outcome-invariant (the
     * behavioural counters stay bit-identical; kernel_identity_test
     * pins this) while sparse sets stop paying for the full
     * caches x assoc walk.
     */
    std::vector<std::uint32_t> chunkValid;
    std::size_t occupied = 0;
    std::uint64_t useClock = 0;
    DynamicBitset scratchHolders; //!< per-access wide-compare result
};

} // namespace cdir

#endif // CDIR_DIRECTORY_DUPLICATE_TAG_DIRECTORY_HH
