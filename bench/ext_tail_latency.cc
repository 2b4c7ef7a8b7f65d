/**
 * @file
 * Beyond-the-paper extension: tail latency of directory accesses under
 * pluggable timing cost models.
 *
 * The paper argues the Cuckoo directory wins on *events* — fewer forced
 * evictions and bounded insertion attempts (Figs. 9-12) — but events
 * only matter because they cost time on a real interconnect: a cuckoo
 * relocation chain serialises directory writes, every forced eviction
 * multicasts invalidations across the NoC, and an off-chip miss dwarfs
 * both. This harness attaches the timing subsystem (model/cost_model.hh
 * + model/latency_histogram.hh) to the simulator and reports the
 * latency *distribution* — p50/p99/p99.9, mean, max — per organization:
 * a mean-equivalent organization with a longer relocation tail shows up
 * here and nowhere else in the repository.
 *
 * The default grid sweeps every registered organization x a synthetic
 * load ladder (the DB2 profile with its data footprint scaled 1x..6x,
 * driving directory pressure from comfortable to thrashing) x one
 * phased scenario preset, under both shipped cost models:
 *
 *   $ ./ext_tail_latency                          # full default grid
 *   $ ./ext_tail_latency --cost-model=mesh --format=csv
 *   $ ./ext_tail_latency --scenario=all           # presets as the axis
 *   $ ./ext_tail_latency --trace=traces/          # recorded traces
 *
 * Every shared flag applies, the campaign flags included. Histograms are
 * integer-bucketed with exact merge, so every number printed here is
 * bit-identical at any --jobs setting (pinned by
 * tests/cost_model_test.cc and the CI tail-latency smoke).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "model/cost_model.hh"
#include "sim/campaign.hh"
#include "sim_common.hh"
#include "workload/scenario.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

/** DB2 sharing profile with footprints scaled by @p mult — the load
 *  ladder's rungs (directory pressure grows with footprint). */
WorkloadParams
loadPoint(std::size_t num_cores, unsigned mult)
{
    WorkloadParams params =
        paperWorkloadParams(PaperWorkload::OltpDb2, false, num_cores);
    params.name = "DB2 x" + std::to_string(mult);
    params.sharedBlocks *= mult;
    params.privateBlocksPerCore *= mult;
    return params;
}

/** Label of the model a record ran under ("" never happens here: every
 *  options point carries a cost model). */
const std::string &
recordModel(const SweepRecord &rec)
{
    return rec.result.costModel;
}

} // namespace

int
main(int argc, char **argv)
{
    HarnessOptions cli = parseHarnessOptions(argc, argv, kAllSharedFlags);
    if (cli.costModels.empty())
        cli.costModels = costModelNames(); // default: every model

    const CmpConfig base = CmpConfig::paperConfig(CmpConfigKind::SharedL2);

    // Directory pressure (not cache warmth) sets the tail, and the
    // ladder's upper rungs exceed the directory's capacity by design,
    // so a modest warmup reaches steady conflict state.
    ExperimentOptions opts;
    opts.warmupAccesses = 500'000 * cli.scale;
    opts.measureAccesses = 1'000'000 * cli.scale;
    opts.occupancySampleEvery = 10'000;

    SweepSpec spec;
    appendCostModelOptions(spec, "", cli.applyOverrides(opts), cli);
    for (const std::string &org : directoryOrganizations())
        spec.config(org, paperConfigWith(CmpConfigKind::SharedL2,
                                         organizationParams(org)));

    try {
        if (!cli.trace.empty()) {
            appendTraceWorkloads(spec, cli.trace);
        } else if (!cli.scenario.empty()) {
            appendScenarioWorkloads(spec, cli.scenario, base.numCores);
        } else {
            // Default axis: the load ladder plus one phased preset, so
            // both stationary pressure and dynamic churn shape the tail.
            for (const unsigned mult : {1u, 2u, 4u, 6u})
                spec.workload(loadPoint(base.numCores, mult).name,
                              loadPoint(base.numCores, mult));
            spec.workload("migration-storm",
                          scenarioWorkloadParams("migration-storm"));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ext_tail_latency: %s\n", e.what());
        return 2;
    }

    const SweepRunner runner(cli.sweep());
    // campaignRunMany honours --campaign-manifest / --campaign-results
    // so this grid can run as a checkpointed multi-process campaign.
    const std::vector<SweepRecord> records = std::move(
        campaignRunMany(cli, runner,
                        std::span<const SweepSpec>(&spec, 1),
                        "ext_tail_latency")
            .front());

    Reporter report(cli.format);
    report.note("tail latency: directory-access latency in cycles on "
                "the 16-core Shared-L2 CMP; percentiles are "
                "nearest-rank over exact integer histogram buckets "
                "(bit-identical at any --jobs)");

    // One distribution table per cost model: organization x load rows
    // with the percentile spread.
    for (const std::string &model : cli.costModels) {
        ReportTable table(
            "latency distribution, '" + model + "' cost model",
            {"organization", "workload", "accesses", "mean", "p50",
             "p99", "p99.9", "max"});
        for (const SweepRecord &rec : records) {
            if (recordModel(rec) != model)
                continue;
            const LatencyHistogram &lat = rec.result.system.latency;
            table.addRow({cellText(rec.configLabel),
                          cellText(rec.workloadLabel),
                          cellNum(double(lat.count()), "%.0f"),
                          cellNum(lat.mean(), "%.2f"),
                          cellNum(double(rec.result.latencyP50), "%.0f"),
                          cellNum(double(rec.result.latencyP99), "%.0f"),
                          cellNum(double(rec.result.latencyP999), "%.0f"),
                          cellNum(double(lat.maxLatency()), "%.0f")});
        }
        report.table(table);
    }

    // Pivot: p99 per organization (columns) as load grows (rows), the
    // harness's headline "who holds the tail under pressure" view.
    const std::vector<std::string> orgs = directoryOrganizations();
    for (const std::string &model : cli.costModels) {
        std::vector<std::string> columns{"workload"};
        columns.insert(columns.end(), orgs.begin(), orgs.end());
        ReportTable pivot("p99 latency by organization, '" + model +
                              "' cost model",
                          std::move(columns));
        for (std::size_t w = 0; w < spec.workloads().size(); ++w) {
            std::vector<ReportCell> row;
            row.push_back(cellText(spec.workloads()[w].label));
            for (std::size_t c = 0; c < orgs.size(); ++c) {
                ReportCell cell = cellMissing();
                for (const SweepRecord &rec : records) {
                    if (rec.configIndex == c && rec.workloadIndex == w &&
                        recordModel(rec) == model) {
                        cell = cellNum(double(rec.result.latencyP99),
                                       "%.0f");
                        break;
                    }
                }
                row.push_back(std::move(cell));
            }
            pivot.addRow(std::move(row));
        }
        report.table(pivot);
    }
    return 0;
}
