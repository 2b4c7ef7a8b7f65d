/**
 * @file
 * Beyond-the-paper extension: time-resolved directory dynamics under
 * phased scenarios.
 *
 * The paper's figures are end-of-run aggregates over stationary
 * workloads; its *arguments*, however, are about behaviour over time —
 * gradual frame-by-frame eviction, stale entries accumulating until
 * conflicts purge them, invalidation pressure when sharing patterns
 * change (§3.2, §5.4). This harness drives every registered directory
 * organization through phased scenarios (workload/scenario.hh) with
 * interval telemetry on, and prints per-window time series of
 * occupancy and forced-invalidation rate — directly probing, e.g., how
 * a Cuckoo directory's occupancy decays after a thread migration
 * strands stale entries versus how Tagless's imprecise filters and
 * Duplicate-Tag's exact mirroring respond to the same storm.
 *
 *   $ ./ext_phase_dynamics                       # 3 default scenarios
 *   $ ./ext_phase_dynamics --scenario=all --format=csv
 *   $ ./ext_phase_dynamics --scenario=diurnal --interval=25000
 *   $ ./ext_phase_dynamics --series-json=series.json --cost-model=mesh
 *
 * Shared flags apply (--jobs/--format/--filter/--scale/--warmup/
 * --measure/--scenario/--probe-every); --cost-model=M times every cell
 * under one cost model (a list is rejected); --interval=N sets
 * the telemetry window (in accesses); --series-json=PATH additionally
 * exports the raw per-window series as structured JSON ('-' =
 * stdout), for plotting pipelines that should not scrape the report
 * tables. Besides the time series, each scenario gets a per-phase
 * aggregate table — the windows folded along the schedule
 * (sim/interval_export.hh) with exact integer sums. Everything is
 * bit-identical at any --jobs value (pinned by tests/scenario_test.cc
 * and the CI scenario smoke).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/interval_export.hh"
#include "sim_common.hh"
#include "workload/scenario.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

void
emitSeries(Reporter &report, const std::string &title,
           const Scenario &scenario, std::uint64_t first_access,
           std::uint64_t interval,
           const std::vector<SweepRecord> &records,
           double (*metric)(const IntervalRecord &))
{
    std::size_t num_windows = 0;
    for (const SweepRecord &rec : records)
        num_windows =
            std::max(num_windows, rec.result.intervals.windows.size());

    std::vector<std::string> columns{"access", "phase"};
    for (const SweepRecord &rec : records)
        columns.push_back(rec.configLabel);
    ReportTable table(title, std::move(columns));
    for (std::size_t w = 0; w < num_windows; ++w) {
        const std::uint64_t start = first_access + w * interval;
        std::vector<ReportCell> row;
        row.push_back(cellNum(double(start), "%.0f"));
        row.push_back(cellText(scenario.phaseAt(start).label));
        for (const SweepRecord &rec : records) {
            const auto &windows = rec.result.intervals.windows;
            row.push_back(w < windows.size()
                              ? cellNum(metric(windows[w]), "%.4f")
                              : cellMissing());
        }
        table.addRow(std::move(row));
    }
    report.table(table);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t interval = 50'000;
    std::string series_json;
    std::string cost_model; // tables are not split by model: one name
    const HarnessOptions cli = parseHarnessOptions(
        argc, argv, kRunGridFlags | kScenarioFlag | kProbeEveryFlag,
        {costModelFlag(cost_model),
         countFlag("interval", interval, 1,
                   "telemetry window in accesses (default 50000)"),
         textFlag("series-json", series_json, "PATH",
                  "also write the per-window series as JSON ('-' = "
                  "stdout)")});

    const std::string scenario_arg = cli.scenario.empty()
                                         ? "migration-storm,"
                                           "phase-oltp-dss,consolidation"
                                         : cli.scenario;
    const std::vector<std::string> scenarios =
        splitScenarioSpecs(scenario_arg);
    if (scenarios.empty()) {
        std::fprintf(stderr, "ext_phase_dynamics: --scenario= names no "
                             "scenarios\n");
        return 2;
    }

    const CmpConfig base = CmpConfig::paperConfig(CmpConfigKind::SharedL2);

    // No warmup by default: the directory filling from empty *is* the
    // signal. The default measure length covers one 6-phase preset pass.
    ExperimentOptions opts;
    opts.warmupAccesses = 0;
    opts.measureAccesses = 1'500'000 * cli.scale;
    opts.occupancySampleEvery = 10'000;
    opts = cli.applyOverrides(opts);
    opts.costModel = cost_model;
    opts.intervalAccesses = interval;

    // One spec per scenario, each carrying the full organization axis;
    // runMany flattens them into a single cell pool (7 orgs x N
    // scenarios in flight together).
    std::vector<SweepSpec> specs;
    std::vector<Scenario> resolved;
    for (const std::string &item : scenarios) {
        try {
            resolved.push_back(resolveScenario(item, base.numCores));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "--scenario: %s\n", e.what());
            return 2;
        }
        SweepSpec spec;
        spec.options("", opts);
        spec.workload(resolved.back().name, scenarioWorkloadParams(item));
        for (const std::string &org : directoryOrganizations())
            spec.config(org, paperConfigWith(CmpConfigKind::SharedL2,
                                             organizationParams(org)));
        specs.push_back(std::move(spec));
    }

    const SweepRunner runner(cli.sweep());
    const std::vector<std::vector<SweepRecord>> results =
        runner.runMany(specs);

    Reporter report(cli.format);
    report.note("phase dynamics: " + std::to_string(interval) +
                "-access windows, 16-core Shared-L2 CMP; occupancy is "
                "the window-end fraction of directory entries in use, "
                "invalidation rate is forced evictions per insertion "
                "within the window");
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const Scenario &scenario = resolved[s];
        emitSeries(report,
                   "occupancy over time: " + scenario.name, scenario,
                   opts.warmupAccesses, interval, results[s],
                   [](const IntervalRecord &rec) {
                       return rec.occupancy();
                   });
        emitSeries(report,
                   "forced-invalidation rate over time: " + scenario.name,
                   scenario, opts.warmupAccesses, interval, results[s],
                   [](const IntervalRecord &rec) {
                       return rec.invalidationRate();
                   });

        // Per-phase aggregates: the series folded along the schedule —
        // exact integer sums per phase occurrence, one block per
        // organization. Latency columns appear when --cost-model timed
        // the run.
        bool timed = false;
        for (const SweepRecord &rec : results[s])
            timed = timed || !rec.result.system.latency.empty();
        std::vector<std::string> columns{
            "organization", "phase",      "start",
            "windows",      "accesses",   "misses",
            "insertions",   "inval rate", "occupancy"};
        if (timed) {
            columns.push_back("lat p50");
            columns.push_back("lat p99");
        }
        ReportTable aggregates("per-phase aggregates: " + scenario.name,
                               std::move(columns));
        for (const SweepRecord &rec : results[s]) {
            const std::vector<PhaseAggregate> phases = aggregateByPhase(
                scenario, opts.warmupAccesses, rec.result.intervals);
            for (const PhaseAggregate &agg : phases) {
                std::vector<ReportCell> row{
                    cellText(rec.configLabel),
                    cellText(agg.label),
                    cellNum(double(agg.firstAccess), "%.0f"),
                    cellNum(double(agg.windows), "%.0f"),
                    cellNum(double(agg.total.accesses), "%.0f"),
                    cellNum(double(agg.total.cacheMisses), "%.0f"),
                    cellNum(double(agg.total.insertions), "%.0f"),
                    cellNum(agg.total.invalidationRate(), "%.4f"),
                    cellNum(agg.total.occupancy(), "%.4f")};
                if (timed) {
                    row.push_back(cellNum(
                        double(agg.total.latency.percentile(500)),
                        "%.0f"));
                    row.push_back(cellNum(
                        double(agg.total.latency.percentile(990)),
                        "%.0f"));
                }
                aggregates.addRow(std::move(row));
            }
        }
        report.table(aggregates);
    }

    if (!series_json.empty()) {
        // Raw per-window export for plotting pipelines: one group per
        // scenario, one labelled series per organization.
        std::vector<IntervalSeriesGroup> groups;
        for (std::size_t s = 0; s < specs.size(); ++s) {
            IntervalSeriesGroup group;
            group.name = resolved[s].name;
            group.firstAccess = opts.warmupAccesses;
            for (const SweepRecord &rec : results[s])
                group.series.push_back(LabelledIntervalSeries{
                    rec.configLabel, &rec.result.intervals});
            groups.push_back(std::move(group));
        }
        try {
            writeIntervalSeriesJsonFile(series_json, groups);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "--series-json: %s\n", e.what());
            return 1;
        }
    }
    return 0;
}
