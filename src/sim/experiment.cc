#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include <sys/resource.h>

#include "model/cost_model.hh"
#include "sim/probe.hh"
#include "workload/feedback.hh"
#include "workload/fleet.hh"
#include "workload/scenario.hh"

namespace cdir {

std::uint64_t
processPeakRssBytes()
{
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

namespace {

/**
 * Measure run with interval telemetry: cut into intervalAccesses-sized
 * windows, each the CmpSystem::cutInterval record since the previous
 * boundary. Called right after resetStats(), so the first mark is the
 * default (all-zero) record.
 */
void
runMeasureWithIntervals(CmpSystem &system, AccessSource &source,
                        const ExperimentOptions &options,
                        IntervalStats &intervals)
{
    intervals.intervalAccesses = options.intervalAccesses;
    IntervalRecord mark;
    std::uint64_t remaining = options.measureAccesses;
    while (remaining > 0) {
        const std::uint64_t chunk =
            std::min(options.intervalAccesses, remaining);
        const std::uint64_t executed =
            system.run(source, chunk, options.occupancySampleEvery);
        if (executed == 0)
            break; // source exhausted on the window boundary
        intervals.windows.push_back(system.cutInterval(mark));
        remaining -= executed;
        if (executed < chunk)
            break; // source exhausted mid-window
    }
}

} // namespace

std::unique_ptr<AccessSource>
makeWorkloadSource(const CmpConfig &config, const WorkloadParams &workload)
{
    if (!workload.tracePath.empty() && !workload.scenarioSpec.empty())
        throw std::runtime_error(
            "workload '" + workload.name +
            "' sets both tracePath and scenarioSpec; they are "
            "mutually exclusive");
    if (!workload.tracePath.empty()) {
        // Trace cell: an independent strict reader (bounded to the
        // system's core count), so concurrent sweep cells over one
        // trace file share nothing and any --jobs value yields
        // bit-identical results.
        return makeTraceReader(workload.tracePath,
                               TraceReadOptions{config.numCores, true});
    }
    if (!workload.scenarioSpec.empty()) {
        // Dynamic cell: a fleet/slo-ramp spec or a scenario
        // preset/file, resolved for this system's core count; every
        // source is deterministic, so per-cell instances yield
        // identical streams.
        return makeDynamicSource(workload.scenarioSpec, config.numCores);
    }
    return std::make_unique<SyntheticSource>(workload);
}

ExperimentResult
runExperiment(const CmpConfig &config, const WorkloadParams &workload,
              const ExperimentOptions &options)
{
    CmpSystem system(config);

    // Optional timing: construct the selected cost model and attach it
    // before warmup (warmup samples are discarded with resetStats, like
    // every other counter). Empty = untimed, nothing allocated.
    std::unique_ptr<CostModel> costs;
    if (!options.costModel.empty()) {
        costs = makeCostModel(options.costModel, config);
        system.setCostModel(costs.get());
    }

    // Warmup-then-measure methodology (§5): warm the system with
    // statistics discarded, then measure. A trace shorter than
    // warmup + measure simply ends early (system.accesses records how
    // much actually ran).
    const std::unique_ptr<AccessSource> source =
        makeWorkloadSource(config, workload);

    // Closed-loop wiring: a feedback-consuming source gets a
    // SystemProbe snapshotting the live system at its requested
    // interval (or the explicit override), attached before the first
    // access so warmup windows already steer it. Probes capture after
    // the apply phase, so snapshots — and every decision made from
    // them — are bit-identical at any --jobs setting.
    std::unique_ptr<SystemProbe> probe;
    FeedbackConsumer *consumer =
        dynamic_cast<FeedbackConsumer *>(source.get());
    if (consumer != nullptr && !consumer->wantsFeedback())
        consumer = nullptr;
    if (consumer != nullptr) {
        if (consumer->needsTiming() && options.costModel.empty())
            throw std::runtime_error(
                "workload '" + workload.name +
                "' steers on a latency metric but no cost model is "
                "attached; pass --cost-model (latency triggers can "
                "never fire untimed)");
        const std::uint64_t interval = options.probeEvery != 0
                                           ? options.probeEvery
                                           : consumer->probeInterval();
        probe = std::make_unique<SystemProbe>(interval);
        system.setProbe(probe.get());
        consumer->attachFeedback(probe->channel());
    }

    system.run(*source, options.warmupAccesses);
    system.resetStats();

    ExperimentResult result;
    const auto measureStart = std::chrono::steady_clock::now();
    if (options.intervalAccesses == 0) {
        system.run(*source, options.measureAccesses,
                   options.occupancySampleEvery);
    } else {
        runMeasureWithIntervals(system, *source, options,
                                result.intervals);
    }
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      measureStart)
            .count();
    result.workload = workload.name;
    result.organization = system.slice(0).name();
    result.directory = system.aggregateDirectoryStats();
    result.system = system.stats();
    result.attemptHistogram = result.directory.attemptHistogram;
    for (std::size_t s = 0; s < system.numSlices(); ++s)
        result.directoryCapacity += system.slice(s).capacity();
    result.avgInsertionAttempts =
        result.directory.insertionAttempts.mean();
    result.forcedInvalidationRate =
        result.directory.forcedInvalidationRate();
    result.avgOccupancy = system.stats().directoryOccupancy.mean();
    result.estimatedBytes = system.estimatedMemoryBytes();
    result.peakRssBytes = processPeakRssBytes();
    if (costs) {
        result.costModel = costs->name();
        const LatencyHistogram &lat = result.system.latency;
        result.latencyP50 = lat.percentile(500);
        result.latencyP99 = lat.percentile(990);
        result.latencyP999 = lat.percentile(999);
    }
    if (consumer != nullptr) {
        result.feedbackEvents = consumer->feedbackEventCount();
        result.feedbackDigest = consumer->feedbackDigest();
        if (const auto *ramp =
                dynamic_cast<const SloRampWorkload *>(source.get())) {
            result.rampFinalLevel = ramp->currentLevel();
            result.rampKneeLevel = ramp->kneeLevel();
            result.rampKneeMetric = ramp->kneeMetric();
            result.rampCrossMetric = ramp->crossMetric();
        }
    }
    return result;
}

DirectoryParams
cuckooSliceParams(unsigned ways, std::size_t sets_per_way,
                  SharerFormat format, HashKind hash)
{
    DirectoryParams p;
    p.organization = "Cuckoo";
    p.ways = ways;
    p.sets = sets_per_way;
    p.format = format;
    p.hash = hash;
    return p;
}

DirectoryParams
sparseSliceParams(unsigned ways, std::size_t sets_per_way,
                  SharerFormat format)
{
    DirectoryParams p;
    p.organization = "Sparse";
    p.ways = ways;
    p.sets = sets_per_way;
    p.format = format;
    p.hash = HashKind::Modulo;
    return p;
}

DirectoryParams
skewedSliceParams(unsigned ways, std::size_t sets_per_way,
                  SharerFormat format)
{
    DirectoryParams p;
    p.organization = "Skewed";
    p.ways = ways;
    p.sets = sets_per_way;
    p.format = format;
    p.hash = HashKind::Skewing;
    return p;
}

double
provisioningFactor(const CmpConfig &config, const DirectoryParams &dir)
{
    const double frames_per_slice =
        double(config.aggregateFrames()) / double(config.numSlices);
    return double(dir.totalEntries()) / frames_per_slice;
}

} // namespace cdir
