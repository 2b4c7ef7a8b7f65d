/**
 * @file
 * Shared test helper: an Rng whose next draw is a chosen 64-bit word.
 *
 * Exactness tests (Bernoulli thresholds, Zipf bucket edges) need to
 * feed a draw a specific raw word. Xoshiro256**'s output is
 * rotl(s1 * 5, 7) * 9, and 5 and 9 are odd, so the output map is a
 * bijection of the second state word: inverting it yields a state
 * whose first output is any requested word.
 */

#ifndef CDIR_TESTS_RNG_TEST_UTIL_HH
#define CDIR_TESTS_RNG_TEST_UTIL_HH

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/rng.hh"

namespace cdir::test {

/** Multiplicative inverse of odd @p x modulo 2^64 (Newton). */
constexpr std::uint64_t
inverseMod64(std::uint64_t x)
{
    std::uint64_t inv = x; // correct to 3 bits for odd x
    for (int i = 0; i < 5; ++i)
        inv *= 2 - x * inv;
    return inv;
}

/** An Rng whose next next() returns @p raw. */
inline Rng
rngEmitting(std::uint64_t raw)
{
    static_assert(std::is_trivially_copyable_v<Rng> &&
                      sizeof(Rng) == 4 * sizeof(std::uint64_t),
                  "Rng must be four plain state words");
    const std::uint64_t rotated = raw * inverseMod64(9);
    const std::uint64_t s1 =
        ((rotated >> 7) | (rotated << 57)) * inverseMod64(5);
    const std::uint64_t state[4] = {0, s1, 0, 0};
    Rng rng;
    std::memcpy(static_cast<void *>(&rng), state, sizeof state);
    return rng;
}

} // namespace cdir::test

#endif // CDIR_TESTS_RNG_TEST_UTIL_HH
