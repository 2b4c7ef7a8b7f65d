/**
 * @file
 * Experiment driver: runs one (configuration, workload) pair through the
 * CMP model with the paper's warmup-then-measure methodology (§5) and
 * returns the per-figure metrics.
 */

#ifndef CDIR_SIM_EXPERIMENT_HH
#define CDIR_SIM_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/cmp_system.hh"
#include "sim/interval_stats.hh"

namespace cdir {

/** Metrics the Fig. 8-12 harnesses consume. */
struct ExperimentResult
{
    std::string workload;
    std::string organization;
    /** Attempts per new-entry insertion (Figs. 9, 10). */
    double avgInsertionAttempts = 0.0;
    /** Forced evictions per insertion (Figs. 9, 12). */
    double forcedInvalidationRate = 0.0;
    /** Sampled aggregate directory occupancy (Fig. 8). */
    double avgOccupancy = 0.0;
    /** Insertion-attempt distribution (Fig. 11). */
    Histogram attemptHistogram{32};
    /** Aggregate directory capacity across slices, in entries. */
    std::size_t directoryCapacity = 0;
    /** Full directory counters. */
    DirectoryStats directory;
    /** Full system counters. */
    CmpStats system;
    /**
     * Per-window time series of the measure run; empty unless
     * ExperimentOptions::intervalAccesses was non-zero (the telemetry
     * is free when unused — see sim/interval_stats.hh).
     */
    IntervalStats intervals;
    /** Cost model the run was timed under ("" = untimed). */
    std::string costModel;
    /**
     * Tail-latency percentiles of the measure run's directory-access
     * latency histogram (system.latency), in cycles; 0 unless a cost
     * model was selected. Nearest-rank over integer buckets, so the
     * values are bit-identical at any --jobs setting.
     */
    std::uint64_t latencyP50 = 0;
    std::uint64_t latencyP99 = 0;
    std::uint64_t latencyP999 = 0;
    /**
     * Estimated host bytes of the simulated system (directory slices +
     * private caches) at the end of the measure run, from
     * CmpSystem::estimatedMemoryBytes(). Deterministic for a given
     * access history, so it is serialized with campaign checkpoints.
     */
    std::uint64_t estimatedBytes = 0;
    /**
     * Closed-loop feedback witness: the number of feedback decisions
     * the workload took (trigger firings, ramp level transitions) and
     * an order-sensitive FNV-1a digest over them. 0/fnv1aInit() when
     * the workload is open-loop. Deterministic, so serialized with
     * campaign checkpoints — two runs that agree here took identical
     * decisions at identical access counts.
     */
    std::uint64_t feedbackEvents = 0;
    std::uint64_t feedbackDigest = 0;
    /**
     * SLO-ramp results (slo-ramp workloads only; 0 otherwise): the load
     * level in force at the end of the run, the knee (last level whose
     * window stayed within target), and the metric values of the last
     * sustained window and the violating window. Deterministic and
     * serialized.
     */
    std::uint64_t rampFinalLevel = 0;
    std::uint64_t rampKneeLevel = 0;
    double rampKneeMetric = 0.0;
    double rampCrossMetric = 0.0;
    /**
     * Process peak RSS (getrusage ru_maxrss) observed after the run, in
     * bytes, and the cell's measure-phase wall-clock seconds. Both are
     * *environmental* — they depend on the host, concurrency, and which
     * cells shared the process — so they are reported but NOT
     * serialized; cells loaded from a campaign checkpoint carry 0 here.
     */
    std::uint64_t peakRssBytes = 0;
    double wallSeconds = 0.0;
};

/** Current process peak RSS in bytes (getrusage; 0 if unavailable). */
std::uint64_t processPeakRssBytes();

/** Knobs for experiment length (defaults keep full runs under minutes). */
struct ExperimentOptions
{
    std::uint64_t warmupAccesses = 2'000'000;
    std::uint64_t measureAccesses = 2'000'000;
    std::uint64_t occupancySampleEvery = 10'000;
    /**
     * Interval telemetry window in accesses: non-zero cuts the measure
     * run into windows of this many accesses and records a per-window
     * IntervalRecord into ExperimentResult::intervals. 0 (the default)
     * collects nothing and keeps the exact single-call measure path.
     * With telemetry on, occupancy-mean sampling positions are taken
     * relative to each window's start.
     */
    std::uint64_t intervalAccesses = 0;
    /**
     * Timing cost model ("fixed", "mesh"; see model/cost_model.hh).
     * Empty (the default) runs untimed: no model is constructed, no
     * histogram is allocated, and the measure path is byte-for-byte the
     * unmodelled one.
     */
    std::string costModel;
    /**
     * Feedback probe interval override, in accesses. 0 (the default)
     * lets a closed-loop workload request its own interval
     * (FeedbackConsumer::probeInterval); non-zero forces this one. No
     * probe is constructed at all for open-loop workloads.
     */
    std::uint64_t probeEvery = 0;
};

/**
 * Run one experiment: construct the system, warm it (statistics
 * discarded), then measure. A workload with a non-empty tracePath is
 * replayed from its file (fresh reader per call, so concurrent cells
 * are independent); one with a scenarioSpec drives a phased
 * ScenarioWorkload (workload/scenario.hh); otherwise the synthetic
 * generator runs.
 */
ExperimentResult runExperiment(const CmpConfig &config,
                               const WorkloadParams &workload,
                               const ExperimentOptions &options = {});

/**
 * Open the access source @p workload describes for a @p config system:
 * a strict trace reader (tracePath), a ScenarioWorkload resolved for
 * config.numCores (scenarioSpec), or a SyntheticSource. Every call
 * returns an independent instance, so concurrent cells share nothing.
 * @throws std::runtime_error if tracePath and scenarioSpec are both
 * set, or if either fails to open/resolve.
 */
std::unique_ptr<AccessSource>
makeWorkloadSource(const CmpConfig &config, const WorkloadParams &workload);

/**
 * Directory parameters for a Cuckoo slice sized as the paper writes it,
 * e.g. "4 x 512": @p ways ways of @p sets_per_way sets per slice.
 */
DirectoryParams cuckooSliceParams(unsigned ways, std::size_t sets_per_way,
                                  SharerFormat format =
                                      SharerFormat::FullVector,
                                  HashKind hash = HashKind::Skewing);

/** Sparse slice parameters ("8-way, over-provisioning x"). */
DirectoryParams sparseSliceParams(unsigned ways, std::size_t sets_per_way,
                                  SharerFormat format =
                                      SharerFormat::FullVector);

/** Skewed-associative slice parameters. */
DirectoryParams skewedSliceParams(unsigned ways, std::size_t sets_per_way,
                                  SharerFormat format =
                                      SharerFormat::FullVector);

/**
 * Provisioning factor of a slice: capacity relative to the worst-case
 * number of blocks the slice must track (tracked cache frames that map
 * to it), as annotated in Fig. 9 ("1x", "2x", "3/4x", ...).
 */
double provisioningFactor(const CmpConfig &config,
                          const DirectoryParams &dir);

} // namespace cdir

#endif // CDIR_SIM_EXPERIMENT_HH
