/**
 * @file
 * Beyond-the-paper extension: maximum sustainable load at an SLO, per
 * directory organization.
 *
 * The tail-latency harness (ext_tail_latency) asks "what tail does a
 * fixed load produce?"; operators ask the inverse: "how much load can I
 * add before the tail breaks my SLO?" This harness answers it with the
 * closed-loop SLO-ramp controller (workload/fleet.hh): a multi-tenant
 * fleet workload whose active-tenant count steps up one level per probe
 * window while the windowed p99 directory latency stays within target,
 * then backs off and holds at the *knee* — the last level sustained
 * within SLO. Comparing knees across organizations turns the paper's
 * event-count argument into a capacity headline: an organization whose
 * conflicts inflate the tail saturates at a lower knee.
 *
 * The ramp is deterministic end to end — probes capture at exact access
 * counts after the apply phase — so every number here (knee level,
 * metric values, transition digest) is bit-identical at any --jobs
 * setting, survives record→replay, and merges
 * byte-identically through campaign checkpoints.
 *
 *   $ ./ext_slo_knee                              # default grid
 *   $ ./ext_slo_knee --target=120 --step=50000
 *   $ ./ext_slo_knee --format=csv --jobs=4
 *
 * Harness-specific flags (every shared flag but --trace and --scenario
 * also applies):
 *   --target=CYCLES   windowed p99 SLO target     (default 260: just
 *                     above the mesh model's unloaded p99 of ~232, so
 *                     the knee separates conflict-prone organizations
 *                     from conflict-free ones instead of tripping on
 *                     baseline network latency)
 *   --step=N          accesses per ramp level     (default 25000)
 *   --max=N           top ramp level = tenants    (default 16)
 *   --blocks=N        per-tenant footprint blocks (default 8192)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "directory/registry.hh"
#include "model/cost_model.hh"
#include "sim/campaign.hh"
#include "sim_common.hh"
#include "workload/fleet.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

/** Same comparison sizings as ext_tail_latency (16-core Shared-L2:
 *  selected Cuckoo 1x vs 2x-provisioned conventional designs). */
DirectoryParams
organizationParams(const std::string &name)
{
    if (name == "Cuckoo")
        return cuckooSliceParams(4, 512);
    if (name == "Sparse")
        return sparseSliceParams(8, 512);
    if (name == "Skewed")
        return skewedSliceParams(4, 1024);
    DirectoryParams params;
    params.organization = name;
    if (name == "Elbow") {
        params.ways = 4;
        params.sets = 1024;
    }
    return params;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t target = 260;
    std::uint64_t step = 25'000;
    std::uint64_t maxLevel = 16;
    std::uint64_t blocks = 8'192;
    HarnessOptions cli = parseHarnessOptions(
        argc, argv,
        kRunGridFlags | kProbeEveryFlag | kCostModelFlag | kCampaignFlags,
        {countFlag("target", target, 1,
                   "windowed p99 SLO target in cycles (default 260)"),
         countFlag("step", step, 1, "accesses per ramp level (default "
                                    "25000)"),
         countFlag("max", maxLevel, 1,
                   "top ramp level = tenants (default 16)"),
         countFlag("blocks", blocks, 1,
                   "per-tenant footprint blocks (default 8192)")});
    if (cli.costModels.empty())
        cli.costModels = {"mesh"}; // p99 needs timing; mesh is realistic

    // One spec string is the whole workload axis: the ramp escalates
    // one level per step-sized window, so the measure run needs room
    // for every level plus hold windows past the knee.
    const std::string rampSpec =
        "slo-ramp:metric=p99:target=" + std::to_string(target) +
        ":step=" + std::to_string(step) +
        ":max=" + std::to_string(maxLevel) +
        ":tenants=" + std::to_string(maxLevel) +
        ":blocks=" + std::to_string(blocks);

    ExperimentOptions opts;
    opts.warmupAccesses = 2 * step * cli.scale;
    opts.measureAccesses = (maxLevel + 8) * step * cli.scale;
    opts.occupancySampleEvery = 10'000;

    SweepSpec spec;
    appendCostModelOptions(spec, "", cli.applyOverrides(opts), cli);
    for (const std::string &org : DirectoryRegistry::instance().names())
        spec.config(org, paperConfigWith(CmpConfigKind::SharedL2,
                                         organizationParams(org)));
    try {
        appendScenarioWorkloads(spec, rampSpec, 16);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ext_slo_knee: %s\n", e.what());
        return 2;
    }

    const SweepRunner runner(cli.sweep());
    const std::vector<SweepRecord> records = std::move(
        campaignRunMany(cli, runner, std::span<const SweepSpec>(&spec, 1),
                        "ext_slo_knee")
            .front());

    Reporter report(cli.format);
    report.note("SLO knee: max sustainable load (active fleet tenants) "
                "with windowed p99 directory latency <= " +
                std::to_string(target) +
                " cycles; ramp steps one level per " +
                std::to_string(step) +
                "-access probe window (deterministic at any "
                "--jobs)");

    for (const std::string &model : cli.costModels) {
        ReportTable table(
            "SLO knee by organization, '" + model + "' cost model",
            {"organization", "knee level", "final level", "knee p99",
             "cross p99", "transitions", "digest"});
        for (const SweepRecord &rec : records) {
            if (rec.result.costModel != model)
                continue;
            char digest[20];
            std::snprintf(digest, sizeof digest, "%016llx",
                          static_cast<unsigned long long>(
                              rec.result.feedbackDigest));
            table.addRow(
                {cellText(rec.configLabel),
                 cellNum(double(rec.result.rampKneeLevel), "%.0f"),
                 cellNum(double(rec.result.rampFinalLevel), "%.0f"),
                 cellNum(rec.result.rampKneeMetric, "%.0f"),
                 cellNum(rec.result.rampCrossMetric, "%.0f"),
                 cellNum(double(rec.result.feedbackEvents), "%.0f"),
                 cellText(digest)});
        }
        report.table(table);
    }
    return 0;
}
