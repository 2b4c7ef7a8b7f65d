/**
 * @file
 * Hash-function family interface used to index the ways of skewed and
 * Cuckoo structures.
 *
 * A d-ary Cuckoo directory indexes each of its d direct-mapped ways
 * through a *different* hash function over the block tag (§4 of the
 * paper). The family abstraction produces, for way w in [0, d), an index
 * in [0, setsPerWay).
 */

#ifndef CDIR_HASH_HASH_FAMILY_HH
#define CDIR_HASH_HASH_FAMILY_HH

#include <cstddef>
#include <memory>

#include "common/types.hh"

namespace cdir {

/**
 * Upper bound on ways a probe loop must handle; way-match masks fit in
 * one uint64_t and callers size their per-probe index scratch with it.
 */
inline constexpr unsigned kMaxProbeWays = 64;

/**
 * Upper bound on sets per way of every hash kind: the skewing family's
 * LFSRs span widths 2..24 only.
 */
inline constexpr std::size_t kMaxDirectorySets = std::size_t{1} << 24;

/**
 * @p ways, checked for a way-probed structure (a Cuckoo table passes
 * @p min_ways 2: displacement needs a second way).
 * @throws std::invalid_argument unless
 * @p min_ways <= @p ways <= kMaxProbeWays.
 */
unsigned checkedProbeWays(unsigned ways, unsigned min_ways = 1);

/** Family of per-way hash functions over block tags. */
class HashFamily
{
  public:
    virtual ~HashFamily() = default;

    /** Number of member functions (ways). */
    virtual unsigned numWays() const = 0;

    /** Size of each function's codomain (sets per way). */
    virtual std::size_t setsPerWay() const = 0;

    /**
     * Index @p tag through member function @p way.
     *
     * @param way  function selector, must be < numWays().
     * @param tag  block tag to hash.
     * @return index in [0, setsPerWay()).
     */
    virtual std::size_t index(unsigned way, Tag tag) const = 0;

    /**
     * Index @p tag through *every* member function in one call:
     * out[w] = index(w, tag) for w in [0, numWays()).
     *
     * The directory probe loops call this once per lookup instead of
     * one virtual call per way; families override it to share work
     * across ways (the skewing family applies its LFSR step
     * incrementally, turning an O(ways^2) recomputation into O(ways)).
     * @p out must have room for numWays() entries.
     */
    virtual void
    indexAll(Tag tag, std::size_t *out) const
    {
        const unsigned n = numWays();
        for (unsigned w = 0; w < n; ++w)
            out[w] = index(w, tag);
    }
};

/** Which family implementation a directory should use. */
enum class HashKind
{
    /** Seznec–Bodin skewing functions (paper default, §5.5). */
    Skewing,
    /** Strong 64-bit mixing functions (paper's cryptographic stand-in). */
    Strong,
    /** Low-order index bits, identical for every way (set-associative). */
    Modulo,
};

/** The last HashKind enumerator (bounds checks of serialized values). */
inline constexpr HashKind kLastHashKind = HashKind::Modulo;

/**
 * Create a hash family.
 *
 * @param kind         implementation to build.
 * @param num_ways     number of member functions.
 * @param sets_per_way codomain size: a power of two in 1..2^24, and
 *                     at least 4 for the Skewing family.
 * @param seed         seed for the Strong family (ignored otherwise).
 * @throws std::invalid_argument for a set count @p kind cannot index.
 */
std::unique_ptr<HashFamily> makeHashFamily(HashKind kind, unsigned num_ways,
                                           std::size_t sets_per_way,
                                           std::uint64_t seed = 1);

} // namespace cdir

#endif // CDIR_HASH_HASH_FAMILY_HH
