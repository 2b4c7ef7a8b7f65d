/**
 * @file
 * Interval-series post-processing: per-phase aggregation and JSON
 * time-series export.
 *
 * IntervalStats (sim/interval_stats.hh) is a flat vector of
 * fixed-length windows; the consumers added around it want two other
 * shapes. The scenario harnesses want the series *folded along the
 * schedule* — one aggregate row per phase occurrence, so "what did the
 * storm phase cost in total?" is one number instead of thirty windows —
 * and plotting pipelines want the raw series as structured JSON instead
 * of scraping the Reporter's CSV. Both are pure functions of collected
 * data: nothing here touches the measure path.
 *
 * Aggregation keeps the repository's exactness discipline: a phase
 * aggregate is IntervalRecord::merge over the phase's windows (integer
 * sums, latency histograms folded bucket-wise), so per-phase numbers
 * are bit-identical at any `--jobs` setting, like the windows they
 * fold.
 */

#ifndef CDIR_SIM_INTERVAL_EXPORT_HH
#define CDIR_SIM_INTERVAL_EXPORT_HH

#include <span>
#include <string>
#include <vector>

#include "sim/interval_stats.hh"
#include "workload/scenario.hh"

namespace cdir {

/** One phase occurrence's worth of interval windows, folded. */
struct PhaseAggregate
{
    std::string label;          //!< phase label from the schedule
    std::uint64_t firstAccess = 0; //!< start of its first window
    std::uint64_t windows = 0;  //!< windows folded into @ref total
    /** Exact integer sums over the occurrence's windows (occupancy()
     *  becomes the mean of the window-boundary point samples). */
    IntervalRecord total;
};

/**
 * Fold @p intervals along @p scenario's schedule: each window is
 * assigned to the phase active at its *start* access (windows are
 * usually much shorter than phases; a window straddling a boundary
 * counts toward the phase it started in), and consecutive windows of
 * the same phase form one aggregate — so a looping scenario yields one
 * entry per phase *occurrence* per pass, in stream order, not one per
 * label. @p first_access is the absolute access index of the first
 * window (the measure run's start, e.g. the warmup length).
 */
std::vector<PhaseAggregate>
aggregateByPhase(const Scenario &scenario, std::uint64_t first_access,
                 const IntervalStats &intervals);

/** One labelled interval series (e.g. an organization's run). */
struct LabelledIntervalSeries
{
    std::string label;
    const IntervalStats *stats = nullptr; //!< borrowed, never null
};

/** A named group of series sharing one time axis (e.g. a scenario). */
struct IntervalSeriesGroup
{
    std::string name;
    std::uint64_t firstAccess = 0; //!< absolute start of window 0
    std::vector<LabelledIntervalSeries> series;
};

/**
 * @p groups as one JSON document (through common/json.hh): an array of
 * `{"name", "firstAccess", "intervalAccesses", "series": [{"label",
 * "windows": [...]}]}` objects, each window carrying the raw integer
 * counters plus the derived occupancy / invalidation-rate / attempt
 * metrics and — when a cost model ran — the window's latency
 * percentiles. Doubles print with the same `%.17g` round-trip precision
 * as the Reporter's CSV.
 */
std::string intervalSeriesToJson(std::span<const IntervalSeriesGroup> groups);

} // namespace cdir

#endif // CDIR_SIM_INTERVAL_EXPORT_HH
