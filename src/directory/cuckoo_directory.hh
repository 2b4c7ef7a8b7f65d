/**
 * @file
 * The Cuckoo directory — the paper's primary contribution (§4).
 *
 * A directory slice organized as a d-ary Cuckoo hash table: d
 * direct-mapped ways indexed through d different hash functions
 * (skewing functions by default, §5.5). Lookup energy and latency match
 * a d-way set-associative structure, but insertion *displaces*
 * conflicting entries to their alternate ways instead of evicting them,
 * which breaks transitive set conflicts and drives forced invalidations
 * to near zero at a fraction of a Sparse directory's capacity
 * (Figs. 9 and 12).
 */

#ifndef CDIR_DIRECTORY_CUCKOO_DIRECTORY_HH
#define CDIR_DIRECTORY_CUCKOO_DIRECTORY_HH

#include <memory>
#include <vector>

#include "directory/cuckoo_table.hh"
#include "directory/directory.hh"

namespace cdir {

/** Cuckoo directory slice (see file comment). */
class CuckooDirectory : public Directory
{
  public:
    /**
     * @param num_caches   private caches tracked.
     * @param ways         cuckoo arity d (paper evaluates 3 and 4).
     * @param sets_per_way slots per way.
     * @param format       sharer-set format of every entry.
     * @param hash         indexing family (Skewing is the paper default).
     * @param max_attempts insertion bound (paper: 32).
     * @param hash_seed    seed for the Strong hash family.
     * @param bucket_slots entries per bucket (Panigrahy extension [30]).
     * @param stash_entries overflow-stash capacity (Kirsch extension
     *        [22]); 0 reproduces the paper, which discards overflow.
     * @throws std::invalid_argument for ways outside 1..kMaxProbeWays.
     */
    CuckooDirectory(std::size_t num_caches, unsigned ways,
                    std::size_t sets_per_way, SharerFormat format,
                    HashKind hash = HashKind::Skewing,
                    unsigned max_attempts = 32, std::uint64_t hash_seed = 1,
                    unsigned bucket_slots = 1, unsigned stash_entries = 0);

    void access(const DirRequest &request, DirAccessContext &ctx) override;
    void removeSharer(Tag tag, CacheId cache) override;
    bool probe(Tag tag, DynamicBitset *sharers = nullptr) const override;
    std::size_t validEntries() const override;
    std::size_t capacity() const override;
    std::string name() const override;

    /** Occupancy of one way (uniformity diagnostics). */
    double wayOccupancy(unsigned way) const
    {
        return table.wayOccupancy(way);
    }

    /** Entries currently parked in the overflow stash. */
    std::size_t stashSize() const { return stash.size(); }

    /** Discards absorbed by the stash instead of invalidating blocks. */
    std::uint64_t stashAbsorbed() const { return stashAbsorbs; }

    std::size_t
    memoryBytes() const override
    {
        return sizeof(*this) + table.memoryBytes() +
               stash.capacity() * sizeof(StashEntry) + sharers.heapBytes();
    }

  private:
    struct StashEntry
    {
        Tag tag;
        SharerSet set;
    };

    /** Stash lookup; nullptr if absent. */
    StashEntry *findStash(Tag tag);
    const StashEntry *findStash(Tag tag) const;

    /** Opportunistically drain one stash entry back into the table. */
    void drainStash();

    SharerStore sharers;
    std::unique_ptr<HashFamily> family;
    CuckooTable<SharerSet> table;
    unsigned stashCapacity;
    std::vector<StashEntry> stash;
    std::uint64_t stashAbsorbs = 0;
};

} // namespace cdir

#endif // CDIR_DIRECTORY_CUCKOO_DIRECTORY_HH
