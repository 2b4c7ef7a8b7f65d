/**
 * @file
 * Associative directory organizations that evict on conflict: the
 * traditional Sparse directory [17], the skewed-associative directory
 * (Fig. 12's "Skewed 2x", adapted from Seznec's cache [33]), the Elbow
 * cache directory (Spjuth et al. [37,38]; §6) and the In-Cache
 * directory (§3.2).
 *
 * All four probe one candidate slot per way and, when every candidate
 * is occupied, evict the least-recently-used candidate — forcing the
 * invalidation of the cached blocks that entry tracked. They differ in
 * indexing: Sparse uses the same low-order index bits for every way (a
 * conventional set), Skewed uses a different skewing function per way,
 * which breaks *direct* conflicts but not transitive ones (§4).
 *
 * Elbow is Skewed plus at most one displacement: before evicting, it
 * scans the candidates for an occupant whose alternate slot in another
 * way is vacant, relocates that occupant there, and inserts into the
 * freed slot. The paper places it between Skewed and Cuckoo: the move
 * needs extra lookups to choose its victim (energy), yet it still
 * forces more invalidations than the unbounded-displacement Cuckoo
 * directory.
 *
 * In-Cache grafts sharer vectors onto the tags of the inclusive shared
 * cache, so it must provision them for *every* L2 tag ("grossly
 * over-provisioning the sharer storage", §3.2; the analytical model
 * charges exactly that). Behaviourally it is a Sparse directory with
 * the shared cache's geometry and full-vector sharers, and a forced
 * eviction corresponds to an inclusion victim. Only meaningful for the
 * Shared-L2 configuration (private L2s cannot include each other, §5.6).
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

#include "common/bit_util.hh"
#include "directory/directory.hh"

namespace cdir {

/** Set-associative / skewed-associative directory (see file comment). */
class AssocDirectory : public Directory
{
  public:
    /** The organization-table row a slice implements (file comment). */
    enum class Kind : std::uint8_t
    {
        Sparse,  //!< Modulo indexing
        Skewed,  //!< DirectoryParams::hash per way (Modulo => Skewing)
        Elbow,   //!< Skewing indexing, one relocation before evicting
        InCache, //!< Modulo indexing, full-vector sharers
    };

    /**
     * Build a @p kind slice from numCaches, ways, sets, format (except
     * InCache), hash (Skewed only) and hashSeed of @p params.
     * @throws std::invalid_argument for ways outside 1..kMaxProbeWays.
     */
    AssocDirectory(Kind kind, const DirectoryParams &params);

    void access(const DirRequest &request, DirAccessContext &ctx) override;
    void removeSharer(Tag tag, CacheId cache) override;
    bool probe(Tag tag, DynamicBitset *sharers = nullptr) const override;

    /** Set-major slices: prefetch the set's tag, LRU and sharer lines. */
    void
    prefetch(Tag tag) const override
    {
        if (!setMajor)
            return;
        // Modulo indexing: the set is the tag's low bits (sets is a
        // power of two).
        const std::size_t base =
            (static_cast<std::size_t>(tag) & (sets - 1)) * ways;
        prefetchRun(&tags[base], ways);
        prefetchRun(&lastUses[base], ways);
        prefetchRun(&sharerSets[base], ways);
    }

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

    /**
     * Insert @p request's tag at vacant position @p p and record an
     * insertion of @p attempts slot writes. Forced inline so the
     * Sparse/Skewed miss path keeps a constant attempt count and no
     * call.
     */
    [[gnu::always_inline]] inline void fill(std::size_t p,
                                            const DirRequest &request,
                                            DirAccessOutcome &out,
                                            unsigned attempts);

    /**
     * Elbow's one move, for a tag whose candidates (way indices @p idx)
     * are all occupied: relocate the first candidate occupant whose slot
     * in another way is vacant.
     * @return the freed candidate position, or npos if none can move.
     */
    std::size_t relocateOne(const std::size_t *idx);

    SharerStore sharers;
    Kind kind;
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

} // namespace cdir

#endif // CDIR_DIRECTORY_ASSOC_DIRECTORY_HH
