/**
 * @file
 * Closed-loop feedback channel: live system metrics for workloads.
 *
 * Every workload source before this subsystem was open-loop — phases
 * fired on access-count schedules no matter what the simulated system
 * was doing. The feedback channel closes the loop: the experiment
 * driver installs a SystemProbe (sim/probe.hh) that snapshots the live
 * system — per-slice occupancy, windowed forced-invalidation rate,
 * windowed insertion attempts, and (when a cost model is attached)
 * windowed p50/p99 latency — at exact access counts, and publishes
 * each ProbeSnapshot here, where a FeedbackConsumer workload
 * (event-triggered ScenarioWorkload phases, the SLO-ramp controller)
 * reads it to steer what it emits next.
 *
 * Determinism contract: probes fire at exact access counts and capture
 * after the apply phase of a flush, so a snapshot's contents — and
 * therefore every trigger decision derived from it — are
 * bit-identical at any `--jobs` setting. The emitted
 * access stream is then a deterministic function of (workload spec,
 * system config, probe interval), which is why a *recorded* closed-loop
 * run replays as an ordinary trace: the trace already embodies every
 * feedback decision.
 *
 * Layering: this header is workload-side (no sim/ dependency); the
 * sim-side producer lives in sim/probe.hh. Trigger grammar
 * ("occupancy>0.8", "p99<120") is shared by the scenario text format
 * and the SLO-ramp spec.
 */

#ifndef CDIR_WORKLOAD_FEEDBACK_HH
#define CDIR_WORKLOAD_FEEDBACK_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cdir {

/**
 * One probe capture: point-in-time occupancy plus windowed (since the
 * previous capture) event rates and latency percentiles. All values
 * are deterministic functions of the access history up to
 * @ref accessIndex.
 */
struct ProbeSnapshot
{
    /** Capture ordinal, 1-based (0 = the null snapshot). */
    std::uint64_t sequence = 0;
    /** Accesses the probe had counted when this capture fired. The
     *  counter spans run() calls (warmup + measure), so the index is an
     *  absolute position in the driven stream. */
    std::uint64_t accessIndex = 0;

    /** Aggregate directory occupancy (valid / capacity) right now. */
    double occupancy = 0.0;
    std::uint64_t occupiedEntries = 0;
    std::uint64_t capacityEntries = 0;
    /** Per-slice occupancy fractions (valid / capacity per slice). */
    std::vector<double> sliceOccupancy;

    /** Accesses driven since the previous capture (== the probe
     *  interval except for the capture straddling a stats reset). */
    std::uint64_t windowAccesses = 0;
    /** New-entry insertions in the window. */
    std::uint64_t windowInsertions = 0;
    /** Mean insertion attempts per insertion in the window (0 when the
     *  window saw no insertions). */
    double windowAttemptMean = 0.0;
    /** Forced (conflict) invalidations in the window. */
    std::uint64_t windowForcedInvalidations = 0;
    /** Forced invalidations per 1000 window accesses. */
    double forcedPer1k = 0.0;

    /** True when a cost model was attached: the latency fields below
     *  are meaningful. */
    bool timed = false;
    /** Windowed latency percentiles, in cycles (0 when untimed or the
     *  window recorded no samples). */
    std::uint64_t windowP50 = 0;
    std::uint64_t windowP99 = 0;
};

/**
 * The mailbox between the sim-side probe and workload-side consumers:
 * holds the most recent snapshot. Single-threaded by design — the
 * probe publishes and the workload reads on the driving thread, in the
 * serial sections of the run loop.
 */
class FeedbackChannel
{
  public:
    /** Install @p snapshot as the latest capture. */
    void publish(ProbeSnapshot snapshot) { last = std::move(snapshot); }

    /** Most recent capture (sequence 0 until the first publish). */
    const ProbeSnapshot &latest() const { return last; }

    /** True once at least one capture was published. */
    bool hasSnapshot() const { return last.sequence != 0; }

  private:
    ProbeSnapshot last;
};

/**
 * Workload sources that consume feedback implement this interface; the
 * experiment driver (runExperiment) detects it, installs a
 * SystemProbe at the consumer's requested interval, and attaches the
 * probe's channel before the first access runs.
 */
class FeedbackConsumer
{
  public:
    virtual ~FeedbackConsumer() = default;

    /** True when this source actually steers on feedback (e.g. a
     *  scenario with at least one triggered phase); false lets the
     *  driver skip probe construction entirely. */
    virtual bool wantsFeedback() const = 0;

    /** Accesses between probe captures this source wants. */
    virtual std::uint64_t probeInterval() const = 0;

    /** Attach the channel (non-owning; outlives this source's use). */
    virtual void attachFeedback(const FeedbackChannel &channel) = 0;

    /**
     * True when some feedback decision reads a latency metric, i.e.
     * the run must attach a cost model; the driver fails loudly up
     * front instead of letting a latency trigger silently never fire.
     */
    virtual bool needsTiming() const { return false; }

    /**
     * Feedback decisions taken so far (trigger firings, ramp level
     * transitions) and an order-sensitive FNV-1a digest over them —
     * the cheap serialized witness that two runs took identical
     * decisions at identical access counts.
     */
    virtual std::uint64_t feedbackEventCount() const { return 0; }
    virtual std::uint64_t feedbackDigest() const { return 0; }
};

/** Metrics a trigger can test (all read from a ProbeSnapshot). */
enum class TriggerMetric
{
    Occupancy,     //!< aggregate occupancy fraction in [0, 1]
    P50,           //!< windowed p50 latency (cycles; needs a cost model)
    P99,           //!< windowed p99 latency (cycles; needs a cost model)
    ForcedPer1k,   //!< forced invalidations per 1k window accesses
    Attempts,      //!< mean insertion attempts per window insertion
};

/** Grammar name of @p metric ("occupancy", "p99", ...). */
const char *triggerMetricName(TriggerMetric metric);

/** Reverse lookup; @return false for an unknown name. */
bool triggerMetricByName(const std::string &name, TriggerMetric &metric);

/** True for metrics that are only meaningful under a cost model. */
bool triggerMetricNeedsTiming(TriggerMetric metric);

/** Read @p metric out of @p snapshot. */
double triggerMetricValue(const ProbeSnapshot &snapshot,
                          TriggerMetric metric);

/** One condition over a snapshot: `<metric><op><threshold>`. */
struct PhaseTrigger
{
    TriggerMetric metric = TriggerMetric::Occupancy;
    /** true: fires when value > threshold; false: when value <. */
    bool greater = true;
    double threshold = 0.0;
};

/**
 * Parse "occupancy>0.8" / "p99<120" (no spaces; ops '>' and '<').
 * @throws std::invalid_argument naming what is malformed.
 */
PhaseTrigger parsePhaseTrigger(const std::string &text);

/** Canonical text of @p trigger (parses back to itself). */
std::string formatPhaseTrigger(const PhaseTrigger &trigger);

/** Evaluate @p trigger against @p snapshot. */
bool triggerSatisfied(const PhaseTrigger &trigger,
                      const ProbeSnapshot &snapshot);

/** Fold @p value into an FNV-1a accumulator (seed with fnv1aInit()). */
constexpr std::uint64_t
fnv1aInit()
{
    return 14695981039346656037ull;
}

constexpr std::uint64_t
fnv1aMix(std::uint64_t hash, std::uint64_t value)
{
    for (unsigned byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace cdir

#endif // CDIR_WORKLOAD_FEEDBACK_HH
