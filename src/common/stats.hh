/**
 * @file
 * Statistics primitives: counters, running means, and bounded histograms.
 *
 * Each directory organization and the CMP simulator expose their behaviour
 * through these types; the bench harnesses read them to regenerate the
 * paper's figures (e.g. the Fig. 11 insertion-attempt histogram).
 */

#ifndef CDIR_COMMON_STATS_HH
#define CDIR_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cdir {

/** Running mean without storing samples. */
class RunningMean
{
  public:
    /** Add one sample. */
    void
    add(double value)
    {
        ++n;
        total += value;
    }

    /** Number of samples. */
    std::uint64_t count() const { return n; }

    /** Mean of samples seen so far (0 if empty). */
    double mean() const { return n == 0 ? 0.0 : total / double(n); }

    /** Sum of all samples. */
    double sum() const { return total; }

    /** Add @p count samples of the same @p value. */
    void
    addWeighted(double value, std::uint64_t count)
    {
        n += count;
        total += value * double(count);
    }

    /**
     * Fold @p other's samples into this mean, exactly (sums counts and
     * totals, so merging per-slice accumulators in any
     * fixed order reproduces the single-accumulator result whenever the
     * sample sum is exactly representable — true for the integer-valued
     * series the simulator records).
     */
    void
    merge(const RunningMean &other)
    {
        n += other.n;
        total += other.total;
    }

    /** Discard all samples. */
    void
    reset()
    {
        n = 0;
        total = 0.0;
    }

    /**
     * Rebuild from serialized state (count() / sum() of an earlier
     * accumulator — the campaign shard JSON round-trip). Replaces the
     * current contents.
     */
    void
    restore(std::uint64_t count, double sum)
    {
        n = count;
        total = sum;
    }

  private:
    std::uint64_t n = 0;
    double total = 0.0;
};

/**
 * Fixed-range integer histogram with an inclusive overflow top bucket,
 * matching how the paper buckets insertion attempts (0..32, where 32
 * also accumulates terminated insertions).
 */
class Histogram
{
  public:
    /** Buckets cover [0, maxValue]; samples above clamp to maxValue. */
    explicit Histogram(std::size_t max_value = 32)
        : buckets(max_value + 1, 0)
    {}

    /** Record one sample. */
    void
    add(std::uint64_t value)
    {
        if (value >= buckets.size())
            value = buckets.size() - 1;
        ++buckets[value];
        ++n;
    }

    /**
     * Record @p count identical samples at once (used when rebuilding a
     * histogram from its serialized sparse-bucket form).
     */
    void
    addCount(std::uint64_t value, std::uint64_t count)
    {
        if (value >= buckets.size())
            value = buckets.size() - 1;
        buckets[value] += count;
        n += count;
    }

    /** Count in bucket @p value. */
    std::uint64_t
    at(std::size_t value) const
    {
        return value < buckets.size() ? buckets[value] : 0;
    }

    /** Fraction of samples in bucket @p value (0 if empty histogram). */
    double
    fraction(std::size_t value) const
    {
        return n == 0 ? 0.0 : double(at(value)) / double(n);
    }

    /** Total samples. */
    std::uint64_t count() const { return n; }

    /** Largest representable bucket index. */
    std::size_t maxValue() const { return buckets.size() - 1; }

    /** Mean of recorded (clamped) samples. */
    double
    mean() const
    {
        if (n == 0)
            return 0.0;
        double weighted = 0.0;
        for (std::size_t v = 0; v < buckets.size(); ++v)
            weighted += double(v) * double(buckets[v]);
        return weighted / double(n);
    }

    /** Accumulate every bucket of @p other into this histogram. */
    void
    merge(const Histogram &other)
    {
        for (std::size_t v = 0; v <= other.maxValue(); ++v) {
            const std::uint64_t k = other.at(v);
            const std::size_t dest =
                v < buckets.size() ? v : buckets.size() - 1;
            buckets[dest] += k;
            n += k;
        }
    }

    /** Discard all samples. */
    void
    reset()
    {
        for (auto &b : buckets)
            b = 0;
        n = 0;
    }

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t n = 0;
};

} // namespace cdir

#endif // CDIR_COMMON_STATS_HH
