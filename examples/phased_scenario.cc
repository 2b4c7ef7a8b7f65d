/**
 * @file
 * Example: building a phased scenario programmatically and watching the
 * directory respond over time.
 *
 * Constructs a three-act schedule — steady OLTP, a migration that moves
 * half the threads across the CMP, then a producer-consumer burst —
 * runs it through a Cuckoo-directory CMP with interval telemetry on,
 * and prints the occupancy/invalidation time series. Also shows that a
 * ScenarioWorkload is an ordinary AccessSource: the same scenario is
 * recorded to a trace file and replayed bit-identically.
 *
 *   $ ./phased_scenario [--format=csv]
 */

#include <cstdio>
#include <string>

#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workload/scenario.hh"

using namespace cdir;

int
main(int argc, char **argv)
{
    const HarnessOptions cli = parseHarnessOptions(argc, argv);
    // This example runs its one hard-coded scenario (that is the
    // point); grid-flavoured flags have nothing to apply to.
    warnFlagUnused(cli, {"filter", "trace", "scenario", "probe-every"});

    // --- 1. declare the schedule ------------------------------------
    const std::size_t cores = 8;
    Scenario scenario;
    scenario.name = "example";
    scenario.numCores = cores;
    scenario.loop = false; // one pass: runs out instead of wrapping

    const WorkloadParams oltp =
        paperWorkloadParams(PaperWorkload::OltpDb2, false, cores);

    ScenarioPhase steady;
    steady.label = "steady";
    steady.accesses = 120'000;
    steady.workload = oltp;
    scenario.phases.push_back(steady);

    // Threads 0..3 migrate onto cores 4..7: their private regions are
    // re-fetched by the new cores while the directory still carries
    // entries naming the old ones.
    ScenarioPhase migrated;
    migrated.label = "migrated";
    migrated.startAccess = 120'000;
    migrated.accesses = 120'000;
    migrated.workload = oltp;
    migrated.workload.seed += 1;
    for (CoreId t = 0; t < 4; ++t)
        migrated.events.push_back(
            {ScenarioEvent::Kind::Migrate, t,
             static_cast<CoreId>(t + 4)});
    scenario.phases.push_back(migrated);

    // Core 0 produces a 256-block ring; every other core consumes it.
    ScenarioPhase burst;
    burst.label = "burst";
    burst.startAccess = 240'000;
    burst.accesses = 120'000;
    burst.workload = oltp;
    burst.workload.seed += 2;
    burst.burst.fraction = 0.5;
    burst.burst.ringBlocks = 256;
    burst.burst.producer = 0;
    scenario.phases.push_back(burst);

    scenario.validate();

    // --- 2. run it with interval telemetry --------------------------
    CmpConfig config = CmpConfig::paperConfig(CmpConfigKind::SharedL2, cores);
    config.directory = cuckooSliceParams(4, 512);

    // An experiment cell resolves scenarioSpec by preset name or file;
    // a programmatic scenario drives the system directly instead.
    CmpSystem system(config);
    ScenarioWorkload source(scenario);

    const std::uint64_t interval = 30'000;
    Reporter report(cli.format);
    ReportTable table("phased scenario on " +
                          system.slice(0).name() + " (8-core Shared-L2)",
                      {"access", "phase", "occupancy", "forced invals",
                       "sharing invals"});
    std::uint64_t executed_total = 0;
    std::uint64_t prev_forced = 0, prev_sharing = 0;
    while (!source.exhausted()) {
        const std::string phase = source.currentPhaseLabel();
        const std::uint64_t executed = system.run(source, interval);
        if (executed == 0)
            break;
        executed_total += executed;
        const CmpStats &stats = system.stats();
        table.addRow(
            {cellNum(double(executed_total), "%.0f"), cellText(phase),
             cellNum(system.currentOccupancy(), "%.4f"),
             cellNum(double(stats.forcedInvalidations - prev_forced),
                     "%.0f"),
             cellNum(double(stats.sharingInvalidations - prev_sharing),
                     "%.0f")});
        prev_forced = stats.forcedInvalidations;
        prev_sharing = stats.sharingInvalidations;
    }
    report.table(table);

    // --- 3. scenarios compose with the trace pipeline ---------------
    // Record the same scenario to a compact binary trace and replay it:
    // the replayed run is bit-identical to the live one.
    const std::string trace_path = "/tmp/phased_scenario_example.ctr";
    {
        ScenarioWorkload live(scenario);
        const auto sink = makeTraceSink(trace_path, /*binary=*/true);
        TraceRecorder recorder(live, *sink);
        CmpSystem recorded(config);
        recorded.run(recorder, ~std::uint64_t{0});
        sink->close();

        CmpSystem replayed(config);
        const auto reader =
            makeTraceReader(trace_path, TraceReadOptions{cores, true});
        replayed.run(*reader, ~std::uint64_t{0});
        report.note(
            recorded.stats().cacheMisses == replayed.stats().cacheMisses &&
                    recorded.stats().forcedInvalidations ==
                        replayed.stats().forcedInvalidations
                ? "record -> replay through " + trace_path +
                      " reproduced the live run exactly"
                : "record -> replay MISMATCH (this is a bug)");
    }

    // The named presets cover the common dynamic patterns.
    std::string presets;
    for (const std::string &name : scenarioPresetNames())
        presets += (presets.empty() ? "" : ", ") + name;
    report.note("presets for --scenario= on any simulation harness: " +
                presets);
    return 0;
}
