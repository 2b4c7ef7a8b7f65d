/**
 * @file
 * Zipf-distributed rank sampler.
 *
 * Server workloads touch their footprints with strong popularity skew
 * (hot database pages, hot code paths); scientific sweeps are close to
 * uniform. The synthetic workload generator draws block ranks from a
 * Zipf(theta) distribution: P(rank k) proportional to 1/k^theta, theta=0
 * degenerating to uniform.
 *
 * A draw inverts the CDF through a guide table: K = bit_ceil(n) buckets
 * over u-space, bucket b holding the first rank whose CDF reaches b/K.
 * A draw of u starts at its bucket's rank and scans forward, so it
 * returns exactly the first rank whose CDF reaches u (a full-range
 * lower bound) after one table read and at most two CDF reads on
 * average (n / K <= 1 ranks per bucket). K is a power of two, so u * K
 * and b * (1/K) are exact.
 */

#ifndef CDIR_WORKLOAD_ZIPF_HH
#define CDIR_WORKLOAD_ZIPF_HH

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace cdir {

/** Inverse-CDF Zipf sampler over ranks [0, n). */
class ZipfSampler
{
  public:
    /** Most ranks a sampler holds: the guide table stores 32-bit ranks. */
    static constexpr std::size_t kMaxRanks =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * @param n     number of ranks.
     * @param theta skew; 0 = uniform, ~1 = classic Zipf.
     * @throws std::invalid_argument unless 1 <= n <= kMaxRanks, before
     * allocating anything.
     */
    ZipfSampler(std::size_t n, double theta) : items(n), skew(theta)
    {
        if (n < 1 || n > kMaxRanks)
            throw std::invalid_argument(
                "Zipf rank count must be in 1.." + std::to_string(kMaxRanks) +
                " (got " + std::to_string(n) + ")");
        if (skew <= 0.0)
            return; // uniform fast path
        cdf.reserve(n);
        double total = 0.0;
        for (std::size_t k = 1; k <= n; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k), skew);
            cdf.push_back(total);
        }
        for (auto &v : cdf)
            v /= total;

        // cdf[n - 1] is total / total == 1.0 and every bucket edge is
        // below 1, so each scan stops inside the CDF.
        const std::size_t buckets = std::bit_ceil(n);
        guideScale = static_cast<double>(buckets);
        const double width = 1.0 / guideScale;
        guide.resize(buckets);
        std::size_t rank = 0;
        for (std::size_t b = 0; b < buckets; ++b) {
            const double edge = static_cast<double>(b) * width;
            while (cdf[rank] < edge)
                ++rank;
            guide[b] = static_cast<std::uint32_t>(rank);
        }
    }

    /** Draw one rank using @p rng. */
    std::size_t
    sample(Rng &rng) const
    {
        if (skew <= 0.0)
            return static_cast<std::size_t>(rng.below(items));
        return rankAt(rng.uniform());
    }

    /**
     * The first rank whose CDF reaches @p u, for u in [0, 1) and
     * theta > 0: the rank sample() returns for a uniform draw of u.
     */
    std::size_t
    rankAt(double u) const
    {
        assert(skew > 0.0 && u >= 0.0 && u < 1.0);
        std::size_t rank = guide[static_cast<std::size_t>(u * guideScale)];
        // Most draws take zero or one step, a coin flip no branch
        // predictor learns; take the first one without a branch.
        rank += cdf[rank] < u;
        while (cdf[rank] < u)
            ++rank;
        return rank;
    }

    /** Number of ranks. */
    std::size_t size() const { return items; }

    /** Configured skew. */
    double theta() const { return skew; }

  private:
    std::size_t items;
    double skew;
    std::vector<double> cdf;
    double guideScale = 0.0;         //!< K, the guide table's size
    std::vector<std::uint32_t> guide; //!< first rank reaching b / K
};

} // namespace cdir

#endif // CDIR_WORKLOAD_ZIPF_HH
