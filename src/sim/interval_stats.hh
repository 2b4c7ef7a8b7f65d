/**
 * @file
 * Interval telemetry: per-window time series of the directory metrics.
 *
 * End-of-run aggregates cannot show the behaviours dynamic workloads
 * exist to probe — gradual frame-by-frame eviction, stale-entry
 * accumulation after a thread migration, invalidation pressure when a
 * sharing pattern shifts (§3.2/§5.4). `IntervalStats` is the
 * time-resolved counterpart: the measure run is cut into fixed-length
 * access windows and each window records the *deltas* of the aggregate
 * counters plus a point sample of directory occupancy at the window
 * boundary. Every window is cut by CmpSystem::cutInterval, which the
 * feedback probe (sim/probe.hh) also uses for its windowed metrics.
 *
 * Design constraints, mirroring the PR 4 counter discipline:
 *
 *  - **off by default and free when unused**: collection happens only
 *    when ExperimentOptions::intervalAccesses is non-zero — the
 *    zero-interval path through runExperiment is the exact single-call
 *    driver, so stationary sweeps pay nothing;
 *  - **exactly mergeable**: every field is an integer count (occupancy
 *    is kept as a valid/capacity entry pair, not a ratio), so folding
 *    per-slice partial series with merge() in any fixed
 *    order reproduces the whole-system series bit for bit;
 *  - **deterministic**: windows are cut at access counts, not wall
 *    clock, so a scenario's time series is bit-identical at any
 *    `--jobs` setting.
 */

#ifndef CDIR_SIM_INTERVAL_STATS_HH
#define CDIR_SIM_INTERVAL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/latency_histogram.hh"

namespace cdir {

/** Counter deltas over one access window, plus an occupancy sample. */
struct IntervalRecord
{
    std::uint64_t accesses = 0;     //!< accesses executed in the window
    std::uint64_t cacheMisses = 0;
    std::uint64_t insertions = 0;   //!< new directory entries
    /** Insertion attempts recorded in the window (integer-valued, so
     *  the per-window mean attemptSum/insertionAttemptCount is exact). */
    std::uint64_t attemptSum = 0;
    std::uint64_t insertionAttemptCount = 0;
    std::uint64_t forcedEvictions = 0;
    std::uint64_t sharingInvalidations = 0;
    std::uint64_t forcedInvalidations = 0;
    /** Valid directory entries at the window boundary (point sample). */
    std::uint64_t occupiedEntries = 0;
    /** Aggregate directory capacity (kept per record so merged partial
     *  series stay self-describing). */
    std::uint64_t capacityEntries = 0;
    /** Latency samples recorded in the window; empty (and unallocated —
     *  the histogram costs nothing) unless a cost model was attached.
     *  Integer bucket counts, so window histograms sum exactly to the
     *  whole-run histogram. */
    LatencyHistogram latency;

    /** Occupancy fraction at the window boundary. */
    double
    occupancy() const
    {
        return capacityEntries == 0
                   ? 0.0
                   : double(occupiedEntries) / double(capacityEntries);
    }

    /** Forced evictions per insertion within the window (Fig. 12 as a
     *  time series). */
    double
    invalidationRate() const
    {
        return insertions == 0
                   ? 0.0
                   : double(forcedEvictions) / double(insertions);
    }

    /** Mean insertion attempts within the window. */
    double
    avgInsertionAttempts() const
    {
        return insertionAttemptCount == 0
                   ? 0.0
                   : double(attemptSum) / double(insertionAttemptCount);
    }

    /** Fold @p other's window into this one (pure integer sums). */
    void
    merge(const IntervalRecord &other)
    {
        accesses += other.accesses;
        cacheMisses += other.cacheMisses;
        insertions += other.insertions;
        attemptSum += other.attemptSum;
        insertionAttemptCount += other.insertionAttemptCount;
        forcedEvictions += other.forcedEvictions;
        sharingInvalidations += other.sharingInvalidations;
        forcedInvalidations += other.forcedInvalidations;
        occupiedEntries += other.occupiedEntries;
        capacityEntries += other.capacityEntries;
        latency.merge(other.latency);
    }
};

/** A time series of IntervalRecord windows (see file comment). */
struct IntervalStats
{
    /** Window length in accesses (0 = telemetry was off). */
    std::uint64_t intervalAccesses = 0;
    std::vector<IntervalRecord> windows;

    /** True iff no series was collected. */
    bool empty() const { return windows.empty(); }

    /**
     * Fold @p other's series into this one, window by window (a longer
     * series extends this one). Partial series must describe the same
     * window cut — summing differently-cut windows would produce a
     * meaningless series, so mismatched non-zero interval lengths are
     * rejected. Because every field is an integer count, merging
     * per-slice partial series in any fixed order is
     * exact.
     * @throws std::invalid_argument on a window-cut mismatch.
     */
    void
    merge(const IntervalStats &other)
    {
        if (intervalAccesses != 0 && other.intervalAccesses != 0 &&
            intervalAccesses != other.intervalAccesses)
            throw std::invalid_argument(
                "IntervalStats::merge: window cuts differ (" +
                std::to_string(intervalAccesses) + " vs " +
                std::to_string(other.intervalAccesses) + " accesses)");
        if (intervalAccesses == 0)
            intervalAccesses = other.intervalAccesses;
        if (windows.size() < other.windows.size())
            windows.resize(other.windows.size());
        for (std::size_t w = 0; w < other.windows.size(); ++w)
            windows[w].merge(other.windows[w]);
    }
};

} // namespace cdir

#endif // CDIR_SIM_INTERVAL_STATS_HH
