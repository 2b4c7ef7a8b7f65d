/**
 * @file
 * Elbow cache directory (Spjuth et al. [37,38]; §6 related work).
 *
 * A skewed-associative organization that, on a conflict, performs *at
 * most one displacement*: it scans the incoming tag's candidate slots
 * for an occupant whose alternate location in another way is vacant,
 * relocates that occupant there, and inserts into the freed slot. If no
 * candidate can be relocated in one hop, the LRU candidate is evicted
 * (a forced invalidation).
 *
 * The paper positions the Elbow cache between the skewed-associative
 * and Cuckoo organizations: the single displacement needs extra lookups
 * to choose its victim (energy), yet still experiences more forced
 * invalidations than the unbounded-displacement Cuckoo directory. The
 * ablation bench quantifies exactly that gap.
 *
 * Storage is structure-of-arrays, way-major (skewed indexing disperses
 * the ways, so there is no contiguous set run), with an empty entry
 * holding kVacantTag in the tag lane: probes compute every way index
 * with one indexAll call, gather the candidate tags, and reduce them
 * with the branchless match-mask kernel.
 */

#ifndef CDIR_DIRECTORY_ELBOW_DIRECTORY_HH
#define CDIR_DIRECTORY_ELBOW_DIRECTORY_HH

#include <memory>
#include <vector>

#include "directory/directory.hh"

namespace cdir {

/** Elbow-cache directory slice (see file comment). */
class ElbowDirectory : public Directory
{
  public:
    /**
     * @param num_caches private caches tracked.
     * @param ways       associativity (one skewing function per way).
     * @param sets       sets per way.
     * @param format     sharer-set format of every entry.
     * @param hash_seed  seed for the hash family.
     */
    ElbowDirectory(std::size_t num_caches, unsigned ways,
                   std::size_t sets, SharerFormat format,
                   std::uint64_t hash_seed = 1);

    void access(const DirRequest &request, DirAccessContext &ctx) override;
    void removeSharer(Tag tag, CacheId cache) override;
    bool probe(Tag tag, DynamicBitset *sharers = nullptr) const override;
    std::size_t validEntries() const override { return occupied; }
    std::size_t capacity() const override { return tags.size(); }
    std::string name() const override;

    /** Insertions resolved by a single relocation (no eviction). */
    std::uint64_t relocations() const { return relocated; }

    std::size_t
    memoryBytes() const override
    {
        return sizeof(*this) + tags.capacity() * sizeof(Tag) +
               lastUses.capacity() * sizeof(std::uint64_t) +
               sharerSets.capacity() * sizeof(SharerSet) +
               sharers.heapBytes();
    }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    /** Flat position of candidate (way, index) — way-major. */
    std::size_t
    pos(unsigned way, std::size_t index) const
    {
        return std::size_t{way} * sets + index;
    }

    /** Position of @p tag, or npos. */
    std::size_t findPosOf(Tag tag) const;

    /** findPosOf with the way indices already computed. */
    std::size_t findPosWithIdx(Tag tag, const std::size_t *idx) const;

    SharerStore sharers;
    std::unique_ptr<HashFamily> family;
    unsigned ways;
    std::size_t sets;

    LineAlignedVector<Tag> tags;            //!< SoA tag lane
    LineAlignedVector<std::uint64_t> lastUses; //!< SoA LRU lane
    LineAlignedVector<SharerSet> sharerSets;   //!< SoA payload lane
    std::size_t occupied = 0;
    std::uint64_t useClock = 0;
    std::uint64_t relocated = 0;
};

} // namespace cdir

#endif // CDIR_DIRECTORY_ELBOW_DIRECTORY_HH
