#include "hash/skewing_hash.hh"

#include <cassert>

#include "common/bit_util.hh"

namespace cdir {

namespace {

/**
 * Primitive-polynomial feedback masks for Galois LFSRs of width 2..24.
 * Using a primitive polynomial makes sigma a full-period bijection, the
 * property Seznec's dispersion analysis assumes. Widths beyond 24 are not
 * needed: 2^24 sets per way at 64B blocks would be a gigabyte-scale
 * directory slice.
 */
constexpr std::uint64_t feedbackTable[] = {
    0x0,      0x0,      0x3,      0x6,      0xc,       0x14,     0x30,
    0x60,     0xb8,     0x110,    0x240,    0x500,     0xe08,    0x1c80,
    0x3802,   0x6000,   0xd008,   0x12000,  0x20400,   0x72000,  0x90000,
    0x140000, 0x300000, 0x420000, 0xe10000,
};

} // namespace

SkewingHashFamily::SkewingHashFamily(unsigned num_ways,
                                     std::size_t sets_per_way)
    : ways(num_ways), sets(sets_per_way)
{
    assert(num_ways >= 1);
    assert(isPowerOfTwo(sets_per_way) && sets_per_way >= 4);
    indexBits = floorLog2(sets_per_way);
    assert(indexBits >= 2 && indexBits <= 24 &&
           "skewing family supports 4..16M sets per way");
    feedback = feedbackTable[indexBits];
    feedbackInv = (feedback << 1) | 1;
}

namespace {

/**
 * One way's step, branch-free: a1 <- sigma(a1), a2 <- sigmaInv(a2) on
 * @p bits-wide values.
 *
 * sigma is one Galois step, a1' = (a1 >> 1) ^ (a1&1 ? F : 0), with the
 * conditional XOR as a mask: -(a1 & 1) is all ones iff the lsb is set.
 * F has its top bit set, so the top bit t of a sigma output says whether
 * F was applied; sigmaInv undoes it, ((a2 ^ (F & -t)) << 1 | t) & mask.
 * Distributing the shift gives (a2 << 1) ^ (G & -t) with
 * G = (F << 1) | 1 (@p feedback_inv): bit @p bits of a2 << 1 is t, and
 * G's copy of F's top bit clears it, so no mask is needed.
 */
inline void
skewStep(std::uint64_t &a1, std::uint64_t &a2, std::uint64_t feedback,
         std::uint64_t feedback_inv, unsigned bits)
{
    a1 = (a1 >> 1) ^ (feedback & (0 - (a1 & 1)));
    a2 = (a2 << 1) ^ (feedback_inv & (0 - (a2 >> (bits - 1))));
}

} // namespace

std::size_t
SkewingHashFamily::index(unsigned way, Tag tag) const
{
    assert(way < ways);
    const unsigned bits = indexBits;
    std::uint64_t a1 = extractBits(tag, 0, bits);
    std::uint64_t a2 = extractBits(tag, bits, bits);
    const std::uint64_t a3 = extractBits(tag, 2 * bits, bits);
    // Apply way-distinct powers of the bijection to each chunk and fold.
    for (unsigned i = 0; i < way; ++i)
        skewStep(a1, a2, feedback, feedbackInv, bits);
    return static_cast<std::size_t>(a1 ^ a2 ^ a3);
}

void
SkewingHashFamily::indexAll(Tag tag, std::size_t *out) const
{
    // f_w = sigma^w(a1) ^ sigmaInv^w(a2) ^ a3: step the bijections once
    // per way instead of recomputing each power from scratch, so the
    // whole probe pays O(ways) branch-free LFSR steps and one virtual
    // call. The constants are copied to locals first: stores through
    // @p out could alias the members and force a reload every way.
    const unsigned n = ways;
    const unsigned bits = indexBits;
    const std::uint64_t fb = feedback;
    const std::uint64_t fb_inv = feedbackInv;
    std::uint64_t a1 = extractBits(tag, 0, bits);
    std::uint64_t a2 = extractBits(tag, bits, bits);
    const std::uint64_t a3 = extractBits(tag, 2 * bits, bits);
    out[0] = static_cast<std::size_t>(a1 ^ a2 ^ a3);
    for (unsigned w = 1; w < n; ++w) {
        skewStep(a1, a2, fb, fb_inv, bits);
        out[w] = static_cast<std::size_t>(a1 ^ a2 ^ a3);
    }
}

} // namespace cdir
