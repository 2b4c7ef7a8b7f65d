/**
 * @file
 * Footnote 1 — the directory operation mix.
 *
 * The paper's energy model weighs operation energies by frequencies
 * measured across its workload suite: insert 23.5%, add sharer 26.9%,
 * remove sharer 24.9%, remove tag 23.5%, invalidate-all 1.2%. This
 * harness measures the same mix from our simulation (both
 * configurations, all nine workloads — one sweep spec per
 * configuration, run on the shared pool) and prints it next to the
 * paper's numbers — the cross-check that ties the simulator to the
 * analytical model's inputs.
 */

#include <vector>

#include "sim_common.hh"

using namespace cdir;
using namespace cdir::bench;

int
main(int argc, char **argv)
{
    const HarnessOptions cli =
        parseHarnessOptions(argc, argv, kPaperGridFlags);
    const SweepRunner runner(cli.sweep());

    std::uint64_t inserts = 0, adds = 0, removes = 0, frees = 0,
                  invals = 0;
    for (CmpConfigKind kind :
         {CmpConfigKind::SharedL2, CmpConfigKind::PrivateL2}) {
        SweepSpec spec = paperSweep(kind, cli);
        spec.config(configName(kind),
                    paperConfigWith(kind, selectedCuckoo(kind)));
        for (const SweepRecord &rec : runner.run(spec)) {
            inserts += rec.result.directory.insertions;
            adds += rec.result.directory.sharerAdds;
            frees += rec.result.directory.entryFrees;
            removes += rec.result.directory.sharerRemovals -
                       rec.result.directory.entryFrees;
            invals += rec.result.directory.writeUpgrades;
        }
    }
    const double total =
        double(inserts + adds + removes + frees + invals);

    ReportTable table("Directory operation mix (footnote 1)",
                      {"operation", "measured", "paper"});
    const struct
    {
        const char *label;
        std::uint64_t count;
        const char *paper;
    } rows[] = {
        {"insert new tag", inserts, "23.5%"},
        {"add sharer to entry", adds, "26.9%"},
        {"remove sharer from entry", removes, "24.9%"},
        {"remove tag (last sharer)", frees, "23.5%"},
        {"invalidate all sharers", invals, "1.2%"},
    };
    for (const auto &r : rows) {
        table.addRow({cellText(r.label),
                      total == 0.0
                          ? cellMissing()
                          : cellNum(100.0 * double(r.count) / total,
                                    "%.1f%%"),
                      cellText(r.paper)});
    }

    Reporter report(cli.format);
    report.table(table);
    return 0;
}
