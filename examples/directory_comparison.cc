/**
 * @file
 * Example: head-to-head comparison of directory organizations on one
 * workload — a single-workload slice of Fig. 12 plus occupancy and
 * capacity context, useful for exploring the design space. The six
 * contenders are one sweep grid run on --jobs= worker threads.
 *
 *   $ ./directory_comparison [workload] [--jobs=N] [--format=csv] ...
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/sweep.hh"

using namespace cdir;

int
main(int argc, char **argv)
{
    // One row per organization, none per cost model: --cost-model=
    // takes one name.
    HarnessOptions cli;
    std::string cost_model;
    CliFlags flags = harnessFlags(argv[0], cli, kRunGridFlags & ~kScaleFlag,
                                  {costModelFlag(cost_model)});
    flags.synopsis = "[workload] [flags]";
    PaperWorkload chosen = PaperWorkload::WebApache;
    for (const std::string &name : flags.parse(argc, argv, 1)) {
        if (!paperWorkloadByName(name, chosen)) {
            std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
            return 1;
        }
    }

    struct Contender
    {
        const char *label;
        DirectoryParams params;
    };

    // Shared-L2 frame baseline per slice is 2048; capacities annotated.
    std::vector<Contender> contenders;
    contenders.push_back({"Sparse 8w (2x)", sparseSliceParams(8, 512)});
    contenders.push_back({"Sparse 8w (8x)", sparseSliceParams(8, 2048)});
    contenders.push_back({"Skewed 4w (2x)", skewedSliceParams(4, 1024)});
    contenders.push_back({"Cuckoo 4w (1x)", cuckooSliceParams(4, 512)});
    {
        DirectoryParams dup;
        dup.organization = "DuplicateTag";
        contenders.push_back({"Duplicate-Tag", dup});
    }
    {
        DirectoryParams tagless;
        tagless.organization = "Tagless";
        tagless.taglessBucketBits = 64;
        contenders.push_back({"Tagless", tagless});
    }

    ExperimentOptions opts;
    opts.warmupAccesses = 500'000;
    opts.measureAccesses = 500'000;
    opts.costModel = cost_model;

    SweepSpec spec;
    spec.options("", cli.applyOverrides(opts));
    spec.workload(paperWorkloadName(chosen),
                  paperWorkloadParams(chosen, false));
    for (const Contender &c : contenders) {
        CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
        cfg.directory = c.params;
        spec.config(c.label, cfg);
    }

    const SweepRunner runner(cli.sweep());
    const std::vector<SweepRecord> records = runner.run(spec);

    Reporter report(cli.format);
    report.note(std::string("workload: ") + paperWorkloadName(chosen) +
                ", Shared-L2 16-core CMP (Table 1)");
    ReportTable table("directory organization comparison",
                      {"organization", "entries", "occupancy",
                       "avg attempts", "forced invals"});
    for (const SweepRecord &rec : records) {
        table.addRow(
            {cellText(rec.configLabel),
             cellNum(double(rec.result.directoryCapacity), "%.0f"),
             cellNum(100.0 * rec.result.avgOccupancy, "%.1f%%"),
             cellNum(rec.result.avgInsertionAttempts),
             cellNum(100.0 * rec.result.forcedInvalidationRate,
                     "%.5f%%")});
    }
    report.table(table);
    report.note("The Cuckoo organization matches the big Sparse 8x "
                "directory's invalidation behaviour at a quarter of its "
                "capacity (Fig. 12).");
    return 0;
}
