/**
 * @file
 * Associative directory organizations that evict on conflict: the
 * traditional Sparse directory [17] and the skewed-associative
 * directory (Fig. 12's "Skewed 2x", adapted from Seznec's cache [33]).
 *
 * Both probe one candidate slot per way and, when every candidate is
 * occupied, evict the least-recently-used candidate — forcing the
 * invalidation of the cached blocks that entry tracked. They differ only
 * in indexing: Sparse uses the same low-order index bits for every way
 * (a conventional set), Skewed uses a different skewing function per
 * way, which breaks *direct* conflicts but not transitive ones (§4).
 *
 * Tags, LRU stamps, and sharer sets live in parallel 64-byte-aligned
 * SoA arrays, carved inside a CmpSystem from the system's huge-page
 * arena (common/arena.hh); an empty entry holds kVacantTag in the tag
 * lane, so a probe reads tag words only. The stride is chosen per hash
 * kind: Modulo indexing means every way probes the same set, so storage
 * is set-major (pos = idx*ways + w) and one probe's candidates are a
 * single contiguous run — an 8-way set's tags are exactly one host
 * cache line.
 * Skewing/Strong indexing disperses the ways, so storage is way-major
 * (pos = w*sets + idx) and probes gather the candidates before reducing
 * them with the match-mask kernel.
 */

#ifndef CDIR_DIRECTORY_ASSOC_DIRECTORY_HH
#define CDIR_DIRECTORY_ASSOC_DIRECTORY_HH

#include <memory>
#include <vector>

#include "directory/directory.hh"

namespace cdir {

/** Set-associative / skewed-associative directory (see file comment). */
class AssocDirectory : public Directory
{
  public:
    /**
     * @param num_caches private caches tracked.
     * @param ways       associativity.
     * @param sets       sets per way.
     * @param format     sharer-set format of every entry.
     * @param hash       Modulo => Sparse; Skewing/Strong => Skewed.
     * @param hash_seed  seed for the Strong family.
     */
    AssocDirectory(std::size_t num_caches, unsigned ways, std::size_t sets,
                   SharerFormat format, HashKind hash,
                   std::uint64_t hash_seed = 1);

    void access(const DirRequest &request, DirAccessContext &ctx) override;
    void removeSharer(Tag tag, CacheId cache) override;
    bool probe(Tag tag, DynamicBitset *sharers = nullptr) const override;
    std::size_t validEntries() const override { return occupied; }
    std::size_t capacity() const override { return tags.size(); }
    std::string name() const override;

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

    /** Flat position of candidate (way, index) under the layout. */
    std::size_t
    pos(unsigned way, std::size_t index) const
    {
        return setMajor ? index * ways + way : std::size_t{way} * sets + index;
    }

    /** Position of @p tag, or npos. */
    std::size_t findPosOf(Tag tag) const;

    /** findPosOf with the way indices already computed. */
    std::size_t findPosWithIdx(Tag tag, const std::size_t *idx) const;

    SharerStore sharers;
    HashKind hashKind;
    std::unique_ptr<HashFamily> family;
    unsigned ways;
    std::size_t sets;
    bool setMajor; //!< Modulo: candidates contiguous per set

    LineAlignedVector<Tag> tags;            //!< SoA tag lane
    LineAlignedVector<std::uint64_t> lastUses; //!< SoA LRU lane
    LineAlignedVector<SharerSet> sharerSets;   //!< SoA payload lane
    std::size_t occupied = 0;
    std::uint64_t useClock = 0;
};

/** Convenience factory for the traditional Sparse organization. */
std::unique_ptr<AssocDirectory>
makeSparseDirectory(std::size_t num_caches, unsigned ways, std::size_t sets,
                    SharerFormat format = SharerFormat::FullVector);

/** Convenience factory for the skewed-associative organization. */
std::unique_ptr<AssocDirectory>
makeSkewedDirectory(std::size_t num_caches, unsigned ways, std::size_t sets,
                    SharerFormat format = SharerFormat::FullVector,
                    std::uint64_t hash_seed = 1);

} // namespace cdir

#endif // CDIR_DIRECTORY_ASSOC_DIRECTORY_HH
