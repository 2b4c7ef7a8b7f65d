/**
 * @file
 * Integer-bucketed log-scale latency histogram with exact merge.
 *
 * The timing cost models (model/cost_model.hh) map every directory
 * access outcome to a latency in cycles; this histogram accumulates
 * those samples so the harnesses can report tail percentiles
 * (p50/p99/p99.9) per organization. Its design follows the repository's
 * counter discipline (CmpStats / IntervalStats):
 *
 *  - **integer bucket counts only** — merge() is a bucket-wise sum and
 *    subtract() a bucket-wise difference, so folding per-window
 *    partials in any fixed order reproduces the
 *    single-accumulator histogram bit for bit, and percentiles read
 *    from a merged histogram are identical at any `--jobs` setting;
 *  - **fixed geometry** — bucket boundaries are a pure function of the
 *    value (values below 64 are exact; above, each power-of-two octave
 *    splits into 32 sub-buckets, ~3% resolution; values >= 2^24 clamp
 *    into the top bucket), so histograms are merge-compatible by
 *    construction and never rescale;
 *  - **allocation-free steady state** — storage is a fixed-size array
 *    allocated lazily on the first add() (or eagerly via
 *    preallocate()); a default-constructed histogram owns nothing, so
 *    carrying one inside CmpStats/IntervalRecord costs nothing when no
 *    cost model is selected.
 *
 * Percentiles use the nearest-rank definition over bucket lower bounds
 * (integer rank arithmetic, no interpolation), so they are exact,
 * deterministic, and invariant under any merge order.
 */

#ifndef CDIR_MODEL_LATENCY_HISTOGRAM_HH
#define CDIR_MODEL_LATENCY_HISTOGRAM_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cdir {

/** Log-scale latency histogram (see file comment). */
class LatencyHistogram
{
  public:
    /** Values below this are their own bucket (exact). */
    static constexpr std::uint64_t kLinearMax = 64;
    /** Sub-bucket bits per octave above the linear range. */
    static constexpr unsigned kSubBits = 5;
    /** Largest represented exponent; values >= 2^(kMaxExponent + 1)
     *  clamp into the top bucket. */
    static constexpr unsigned kMaxExponent = 23;
    /** Total buckets: the linear range plus 32 per octave for
     *  exponents 6..kMaxExponent. */
    static constexpr std::size_t kBuckets =
        kLinearMax + (kMaxExponent - 5) * (std::size_t{1} << kSubBits);

    /** Bucket index of @p value (pure function of the value). */
    static std::size_t
    bucketOf(std::uint64_t value)
    {
        if (value < kLinearMax)
            return static_cast<std::size_t>(value);
        const unsigned exp =
            static_cast<unsigned>(std::bit_width(value)) - 1;
        if (exp > kMaxExponent)
            return kBuckets - 1;
        const std::uint64_t sub = (value >> (exp - kSubBits)) &
                                  ((std::uint64_t{1} << kSubBits) - 1);
        return kLinearMax +
               (exp - 6) * (std::size_t{1} << kSubBits) +
               static_cast<std::size_t>(sub);
    }

    /** Smallest value that maps to bucket @p index (the value
     *  percentile() reports for samples landing there). */
    static std::uint64_t
    bucketLowerBound(std::size_t index)
    {
        assert(index < kBuckets);
        if (index < kLinearMax)
            return index;
        const std::size_t b = index - kLinearMax;
        const unsigned exp =
            6 + static_cast<unsigned>(b >> kSubBits);
        const std::uint64_t sub = b & ((std::size_t{1} << kSubBits) - 1);
        return (std::uint64_t{1} << exp) | (sub << (exp - kSubBits));
    }

    /** Record one latency sample. Allocation-free once storage exists
     *  (first add() or preallocate()). */
    void
    add(std::uint64_t value)
    {
        if (counts.empty())
            preallocate();
        ++counts[bucketOf(value)];
        ++n;
        sum += value;
    }

    /** Eagerly size the bucket array (so steady-state add() calls
     *  never touch the allocator). Idempotent. */
    void
    preallocate()
    {
        if (counts.empty())
            counts.resize(kBuckets, 0);
    }

    /** Total samples. */
    std::uint64_t count() const { return n; }

    /** True iff no samples were recorded. */
    bool empty() const { return n == 0; }

    /** Sum of all raw (unclamped) sample values. */
    std::uint64_t totalCycles() const { return sum; }

    /** Mean of raw sample values (0 if empty). */
    double
    mean() const
    {
        return n == 0 ? 0.0 : double(sum) / double(n);
    }

    /** Count in bucket @p index. */
    std::uint64_t
    bucketAt(std::size_t index) const
    {
        return index < counts.size() ? counts[index] : 0;
    }

    /**
     * Nearest-rank percentile in permille (p50 = 500, p99 = 990,
     * p99.9 = 999; 1000 = the maximum bucket). Returns the lower bound
     * of the bucket holding the rank-th smallest sample — integer
     * arithmetic throughout, so the value is exact and merge-order
     * invariant. 0 if the histogram is empty.
     */
    std::uint64_t
    percentile(unsigned permille) const
    {
        assert(permille >= 1 && permille <= 1000);
        if (n == 0)
            return 0;
        // ceil(permille/1000 * n), clamped to [1, n].
        std::uint64_t rank = (permille * n + 999) / 1000;
        if (rank == 0)
            rank = 1;
        if (rank > n)
            rank = n;
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
            cumulative += counts[b];
            if (cumulative >= rank)
                return bucketLowerBound(b);
        }
        return bucketLowerBound(kBuckets - 1);
    }

    /** Lower bound of the highest non-empty bucket (0 if empty) — the
     *  deterministic "max" a subtractable histogram can report. */
    std::uint64_t
    maxLatency() const
    {
        for (std::size_t b = counts.size(); b-- > 0;)
            if (counts[b] != 0)
                return bucketLowerBound(b);
        return 0;
    }

    /** Fold @p other into this histogram (exact bucket-wise sums). */
    void
    merge(const LatencyHistogram &other)
    {
        if (other.n == 0)
            return;
        preallocate();
        for (std::size_t b = 0; b < other.counts.size(); ++b)
            counts[b] += other.counts[b];
        n += other.n;
        sum += other.sum;
    }

    /**
     * Subtract an earlier snapshot of this accumulator, leaving the
     * delta (how interval windows are cut from cumulative counters).
     * @p earlier must be a prefix: every bucket count monotonically
     * grew from it.
     * @throws std::invalid_argument if @p earlier is not a prefix.
     */
    void
    subtract(const LatencyHistogram &earlier)
    {
        if (earlier.n == 0)
            return;
        if (earlier.n > n || earlier.sum > sum)
            throw std::invalid_argument(
                "LatencyHistogram::subtract: operand is not an "
                "earlier snapshot");
        for (std::size_t b = 0; b < earlier.counts.size(); ++b) {
            if (earlier.counts[b] > counts[b])
                throw std::invalid_argument(
                    "LatencyHistogram::subtract: operand is not an "
                    "earlier snapshot");
            counts[b] -= earlier.counts[b];
        }
        n -= earlier.n;
        sum -= earlier.sum;
    }

    /**
     * Rebuild from serialized state — sparse (bucket index, count)
     * pairs plus the raw totalCycles() sum, the inverse of how the
     * campaign shard JSON stores a histogram. Replaces the current
     * contents. Because bucket geometry is fixed, the rebuilt histogram
     * is bucket-wise identical to the original accumulator.
     * @throws std::invalid_argument on an out-of-range bucket index.
     */
    void
    restore(std::uint64_t raw_sum,
            const std::vector<std::pair<std::size_t, std::uint64_t>>
                &bucket_counts)
    {
        counts.clear();
        n = 0;
        sum = 0;
        if (bucket_counts.empty() && raw_sum == 0)
            return;
        preallocate();
        for (const auto &[index, count] : bucket_counts) {
            if (index >= kBuckets)
                throw std::invalid_argument(
                    "LatencyHistogram::restore: bucket out of range");
            counts[index] += count;
            n += count;
        }
        sum = raw_sum;
    }

    /** Bucket-wise equality (an unallocated histogram equals an
     *  allocated all-zero one). */
    bool
    operator==(const LatencyHistogram &other) const
    {
        if (n != other.n || sum != other.sum)
            return false;
        for (std::size_t b = 0; b < kBuckets; ++b)
            if (bucketAt(b) != other.bucketAt(b))
                return false;
        return true;
    }

  private:
    std::vector<std::uint64_t> counts; //!< empty until first add()
    std::uint64_t n = 0;
    std::uint64_t sum = 0;
};

} // namespace cdir

#endif // CDIR_MODEL_LATENCY_HISTOGRAM_HH
