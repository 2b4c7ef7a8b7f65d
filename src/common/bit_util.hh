/**
 * @file
 * Small bit-manipulation helpers used by the hash functions, cache
 * indexing, and the analytical energy/area model — plus the
 * word-parallel probe kernels the directory hot path runs on.
 *
 * The probe kernels mirror the hardware the paper describes: a
 * directory lookup fires all way comparators simultaneously (§4), so
 * the software model compares a whole candidate run branchlessly and
 * reduces the matches to a uint64_t mask. An empty slot holds the
 * reserved kVacantTag (common/types.hh), so a probe reads tag words
 * only — there is no valid lane beside them. A run is either bare tags
 * or slots that carry their tag in a `tag` member next to what a hit
 * touches (a cache frame's LRU stamp, a Cuckoo slot's sharers). Written
 * as plain loops with no intrinsics, portable everywhere (build with
 * -DCDIR_NATIVE=ON for -march=native codegen).
 *
 * The kernels are the only runtime path. The bit-identity test suite
 * keeps branchy early-exit reference implementations as oracles and
 * checks the kernels against them on random runs.
 */

#ifndef CDIR_COMMON_BIT_UTIL_HH
#define CDIR_COMMON_BIT_UTIL_HH

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/types.hh"

namespace cdir {

/** @return true iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2; @p v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    assert(v != 0);
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** Ceiling of log2; @p v must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return floorLog2(v) + (isPowerOfTwo(v) ? 0u : 1u);
}

/** Number of bits needed to name @p n distinct values (at least 1). */
constexpr unsigned
bitsToName(std::uint64_t n)
{
    return n <= 1 ? 1u : ceilLog2(n);
}

/** Largest s with s*s <= n (exact integer square root). */
constexpr std::uint64_t
isqrtFloor(std::uint64_t n)
{
    if (n < 2)
        return n;
    // Newton's iteration seeded above sqrt(n): 2^ceil(log2(n)/2) squares
    // to >= n, and the iteration decreases monotonically to floor(sqrt).
    std::uint64_t x = std::uint64_t{1} << ((floorLog2(n) / 2) + 1);
    std::uint64_t y = (x + n / x) / 2;
    while (y < x) {
        x = y;
        y = (x + n / x) / 2;
    }
    return x;
}

/**
 * Smallest s with s*s >= n. Used for cluster-geometry derivations
 * (hierarchical sharer vectors, the analytical model) in place of
 * std::ceil(std::sqrt(double)) so storage accounting cannot drift
 * across platforms, FP modes, or libm versions.
 */
constexpr std::uint64_t
isqrtCeil(std::uint64_t n)
{
    const std::uint64_t r = isqrtFloor(n);
    return r * r == n ? r : r + 1;
}

/** Mask with the low @p bits bits set. */
constexpr std::uint64_t
lowMask(unsigned bits)
{
    assert(bits <= 64);
    return bits == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

/** Extract bits [lo, lo+count) of @p v. */
constexpr std::uint64_t
extractBits(std::uint64_t v, unsigned lo, unsigned count)
{
    return (v >> lo) & lowMask(count);
}

/** Rotate the low @p width bits of @p v left by @p amount. */
constexpr std::uint64_t
rotateLeft(std::uint64_t v, unsigned amount, unsigned width)
{
    assert(width > 0 && width <= 64);
    v &= lowMask(width);
    amount %= width;
    if (amount == 0)
        return v;
    return ((v << amount) | (v >> (width - amount))) & lowMask(width);
}

// --- word-parallel probe kernels ---------------------------------------------

/**
 * Widest candidate run a single kernel call reduces (the match mask is
 * one uint64_t). Directory probes never exceed it: the widest shipped
 * organization compares caches x assoc frames per chunk of 64.
 */
inline constexpr std::size_t kKernelWidth = 64;

/** Tag of one lane element: a bare tag. */
constexpr Tag
laneTag(Tag tag)
{
    return tag;
}

/** Tag of one lane element: a slot's `tag` member. */
template <typename Slot>
constexpr Tag
laneTag(const Slot &slot)
{
    return slot.tag;
}

/**
 * Branchless match mask over a contiguous candidate run: bit i is set
 * iff run[i]'s tag equals @p needle. No early exit — the loop body is a
 * pure compare/accumulate, the software analogue of the hardware's
 * parallel way comparators. A vacant slot holds kVacantTag, so it never
 * matches a real tag. @p n must be <= kKernelWidth.
 */
template <typename Elem>
inline std::uint64_t
tagMatchMask(const Elem *run, std::size_t n, Tag needle)
{
    assert(n <= kKernelWidth);
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < n; ++i)
        mask |= static_cast<std::uint64_t>(laneTag(run[i]) == needle) << i;
    return mask;
}

/**
 * First slot in a contiguous run holding @p needle, or @p n: the
 * lowest set bit of the branchless match mask.
 */
template <typename Elem>
inline std::size_t
findTag(const Elem *run, std::size_t n, Tag needle)
{
    const std::uint64_t mask = tagMatchMask(run, n, needle);
    return mask != 0 ? static_cast<std::size_t>(std::countr_zero(mask)) : n;
}

/** Branchless vacancy mask: bit i set iff run[i] is vacant (n <= 64). */
template <typename Elem>
inline std::uint64_t
vacancyMask(const Elem *run, std::size_t n)
{
    return tagMatchMask(run, n, kVacantTag);
}

/** First vacant slot in a contiguous run, or @p n. */
template <typename Elem>
inline std::size_t
findVacant(const Elem *run, std::size_t n)
{
    return findTag(run, n, kVacantTag);
}

/**
 * Hint that the contiguous run of @p n elements at @p run is about to
 * be probed: one prefetch per 64-byte host line the run spans. A pure
 * hint — it changes no state and reads nothing the caller can observe.
 */
template <typename Elem>
inline void
prefetchRun(const Elem *run, std::size_t n)
{
    constexpr std::uintptr_t line = 64;
    const auto end = reinterpret_cast<std::uintptr_t>(run + n);
    for (auto at = reinterpret_cast<std::uintptr_t>(run) & ~(line - 1);
         at < end; at += line)
        __builtin_prefetch(reinterpret_cast<const void *>(at));
}

} // namespace cdir

#endif // CDIR_COMMON_BIT_UTIL_HH
