/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the reproduction (workload generation, the
 * Fig. 7 random-value experiment, randomized property tests) draws from a
 * seeded Xoshiro256** generator so results are bit-reproducible across
 * runs and platforms.
 */

#ifndef CDIR_COMMON_RNG_HH
#define CDIR_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace cdir {

/**
 * A Bernoulli probability in integer form, precomputed off the hot
 * path. Rng::uniform() is x * 2^-53 for the integer x = next() >> 11,
 * and scaling by a power of two is exact, so uniform() < p holds iff
 * x < ceil(p * 2^53): Rng::chance(ChanceThreshold(p)) draws exactly
 * what Rng::chance(p) draws, without the conversion to double.
 */
struct ChanceThreshold
{
    explicit ChanceThreshold(double p)
        : bound(!(p > 0.0)  ? 0
                : p >= 1.0 ? std::uint64_t{1} << 53
                           : static_cast<std::uint64_t>(
                                 std::ceil(std::ldexp(p, 53))))
    {}

    /** Draws x = next() >> 11 below this succeed. */
    std::uint64_t bound;
};

/**
 * Xoshiro256** generator (Blackman & Vigna). Satisfies the needs of a
 * simulator: fast, high quality, 64-bit output, trivially seedable.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via SplitMix64 state expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            // SplitMix64 step.
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free reduction is adequate
        // here; slight modulo bias at 2^64-scale bounds is irrelevant to
        // the experiments.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** The same Bernoulli draw as chance(p) for @p t = ChanceThreshold(p). */
    bool
    chance(ChanceThreshold t)
    {
        return (next() >> 11) < t.bound;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

} // namespace cdir

#endif // CDIR_COMMON_RNG_HH
