/**
 * @file
 * SystemProbe: the sim-side producer of the closed-loop feedback
 * channel (workload/feedback.hh).
 *
 * The probe attaches to a CmpSystem (CmpSystem::setProbe) and counts
 * every access the driver stages. When the count reaches a probe
 * boundary — an exact multiple of the configured interval — the driver
 * flushes the open batch window and calls capture(), which reads the
 * system *after* the serial apply phase: occupancy per slice and in
 * aggregate, plus windowed deltas (insertions, insertion attempts,
 * forced invalidations, and latency percentiles when a cost model is
 * attached) since the previous capture. The window is the
 * CmpSystem::cutInterval record, the same cut interval telemetry
 * takes. The snapshot is published into the probe's FeedbackChannel
 * for consumer workloads.
 *
 * Because boundaries are exact access counts and capture runs in the
 * apply phase, every snapshot — and every trigger decision a workload
 * takes from it — is bit-identical at any `--jobs` setting.
 *
 * The access counter spans run() calls, so warmup and measure share
 * one boundary grid; CmpSystem::resetStats() re-baselines the window
 * deltas (via onStatsReset) without disturbing that grid.
 */

#ifndef CDIR_SIM_PROBE_HH
#define CDIR_SIM_PROBE_HH

#include <cstdint>

#include "sim/interval_stats.hh"
#include "workload/feedback.hh"

namespace cdir {

class CmpSystem;

/** Access-count-aligned metric probe (see file comment). */
class SystemProbe
{
  public:
    /** @throws std::invalid_argument when @p interval_accesses is 0. */
    explicit SystemProbe(std::uint64_t interval_accesses);

    /** Accesses between captures. */
    std::uint64_t intervalAccesses() const { return interval; }

    /** The channel consumers attach to. */
    const FeedbackChannel &channel() const { return feed; }

    /**
     * Count one staged access; @return true when the count reached a
     * probe boundary (the driver must flush, then call capture()).
     */
    bool
    tick()
    {
        ++accessCount;
        return accessCount % interval == 0;
    }

    /** Accesses counted so far (spans run() calls). */
    std::uint64_t accessesSeen() const { return accessCount; }

    /** Captures published so far. */
    std::uint64_t captures() const { return sequence; }

    /** Snapshot @p system and publish (call with no open window). */
    void capture(const CmpSystem &system);

    /**
     * Re-baseline the window deltas after the system's counters were
     * zeroed (CmpSystem::resetStats calls this); the access counter
     * and capture sequence keep running.
     */
    void onStatsReset();

  private:
    std::uint64_t interval;
    std::uint64_t accessCount = 0;
    std::uint64_t sequence = 0;
    FeedbackChannel feed;

    // The previous capture: its access count and cumulative counters.
    std::uint64_t markIndex = 0;
    IntervalRecord mark;
};

} // namespace cdir

#endif // CDIR_SIM_PROBE_HH
