/**
 * @file
 * Set-associative write-back cache model.
 *
 * Functional (untimed) model used for the private L1/L2 caches and the
 * shared L2 of the CMP simulator. The directory experiments depend only
 * on which block addresses are resident in each private cache over time,
 * so the model tracks tags, coherence-relevant dirty bits, and LRU state,
 * and reports evictions so the directory can retire sharers (§5.2:
 * "dirty and clean evictions from the private caches are tracked by the
 * directory").
 *
 * Frame layout: each frame is one 16-byte {tag, stamp} pair in a
 * set-major, 64-byte-aligned array, so an access — compare, LRU update
 * and dirty bit — touches one host line per set (a 2-way set is 32 B,
 * a 4-way set exactly one line). An empty frame holds kVacantTag. The
 * stamp is the frame's last-use time with the dirty bit folded into its
 * top bit; LRU compares stamps with that bit masked off. A cache built
 * by a CmpSystem carves its frame array from the system's huge-page
 * arena (common/arena.hh), so a run's random set reads stay within a
 * few TLB entries.
 */

#ifndef CDIR_CACHE_CACHE_HH
#define CDIR_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bit_util.hh"
#include "common/bitset.hh"
#include "common/types.hh"

namespace cdir {

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;                       //!< tag was resident
    bool writeHitClean = false;             //!< write upgraded a clean block
    std::optional<BlockAddr> victim;        //!< evicted block, if any
    bool victimDirty = false;               //!< eviction was a write-back
};

/** Configuration of one cache. */
struct CacheConfig
{
    std::size_t numSets = 64;     //!< must be a power of two
    unsigned assoc = 2;           //!< ways per set
    std::size_t capacityBlocks() const { return numSets * assoc; }
};

/**
 * Set-associative write-back cache with true-LRU replacement.
 *
 * Addresses are *block* addresses; the model is untimed and returns
 * hit/miss/eviction outcomes synchronously.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Perform a read or write access, allocating on miss.
     *
     * @param addr     block address.
     * @param is_write true for stores.
     * @return hit/victim outcome for the coherence layer.
     */
    CacheAccessResult access(BlockAddr addr, bool is_write);

    /**
     * Hint that @p addr is about to be accessed: prefetch the host
     * lines holding its set's frames. Changes no state.
     */
    void
    prefetch(BlockAddr addr) const
    {
        prefetchRun(&frames[setIndex(addr) * cfg.assoc], cfg.assoc);
    }

    /** True iff @p addr is resident. */
    bool contains(BlockAddr addr) const;

    /** True iff @p addr is resident and dirty. */
    bool isDirty(BlockAddr addr) const;

    /**
     * Remove @p addr if resident (directory-forced or sharing-forced
     * invalidation).
     * @return true iff the block was resident.
     */
    bool invalidate(BlockAddr addr);

    /** Mark a resident block clean (downgrade on remote read). */
    void cleanse(BlockAddr addr);

    /** Number of resident blocks. */
    std::size_t residentBlocks() const { return resident; }

    /** Total frames. */
    std::size_t capacityBlocks() const { return cfg.capacityBlocks(); }

    /** Configuration this cache was built with. */
    const CacheConfig &config() const { return cfg; }

    /** Enumerate resident block addresses (testing/diagnostics). */
    std::vector<BlockAddr> residentAddresses() const;

    /** Estimated host bytes of the frame array (RAM budgeting). */
    std::size_t
    memoryBytes() const
    {
        return sizeof(*this) + frames.capacity() * sizeof(Frame);
    }

    /** One cache frame: block address and LRU stamp (see file comment). */
    struct Frame
    {
        BlockAddr tag;       //!< resident block, or kVacantTag
        std::uint64_t stamp; //!< last use, dirty flag in the top bit
    };

  private:
    static constexpr std::size_t nframe = ~std::size_t{0};
    static constexpr std::uint64_t dirtyBit = std::uint64_t{1} << 63;

    std::size_t
    setIndex(BlockAddr addr) const
    {
        return static_cast<std::size_t>(addr) & indexMask;
    }

    /** Flat frame index of @p addr, or nframe. */
    std::size_t findFrame(BlockAddr addr) const;

    CacheConfig cfg;
    std::size_t indexMask;
    // Set-major frames: a set's assoc frames are one contiguous run the
    // probe kernel reduces in a single pass (see common/bit_util.hh).
    LineAlignedVector<Frame> frames;
    std::uint64_t useClock = 0; //!< stays below dirtyBit
    std::size_t resident = 0;
};

} // namespace cdir

#endif // CDIR_CACHE_CACHE_HH
