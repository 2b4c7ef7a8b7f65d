/**
 * @file
 * Seznec–Bodin skewing hash family.
 *
 * The paper (§5.5) uses the skewing functions of Seznec and Bodin
 * [PARLE'93], which need only a few levels of XOR logic in hardware.
 * The construction splits the tag into two n-bit chunks (n = log2(sets))
 * and combines them with powers of a bijective LFSR step sigma:
 *
 *     f_w(a1, a2) = sigma^w(a1) XOR sigma_inv^w(a2)
 *
 * sigma is one Galois-LFSR shift, a bijection on n-bit values, so each
 * f_w is a permutation-based XOR hash; distinct ways use distinct powers,
 * giving the inter-way dispersion property skewed caches rely on: two
 * tags that conflict in one way are unlikely to conflict in another.
 *
 * Like the hardware's few levels of XOR, the model takes no
 * data-dependent branch: each LFSR step (and its inverse) applies the
 * feedback through a mask built from the shifted-out bit, so the cost of
 * indexAll() does not depend on the tag's bits.
 */

#ifndef CDIR_HASH_SKEWING_HASH_HH
#define CDIR_HASH_SKEWING_HASH_HH

#include "hash/hash_family.hh"

namespace cdir {

/** Skewing hash family (see file comment). */
class SkewingHashFamily : public HashFamily
{
  public:
    /**
     * @param num_ways     number of member functions.
     * @param sets_per_way codomain size; must be a power of two >= 2.
     */
    SkewingHashFamily(unsigned num_ways, std::size_t sets_per_way);

    unsigned numWays() const override { return ways; }
    std::size_t setsPerWay() const override { return sets; }
    std::size_t index(unsigned way, Tag tag) const override;
    void indexAll(Tag tag, std::size_t *out) const override;

  private:
    unsigned ways;
    std::size_t sets;
    unsigned indexBits;
    std::uint64_t feedback; //!< LFSR feedback polynomial for this width.
    std::uint64_t feedbackInv; //!< (feedback << 1) | 1, for sigma^-1
};

} // namespace cdir

#endif // CDIR_HASH_SKEWING_HASH_HH
