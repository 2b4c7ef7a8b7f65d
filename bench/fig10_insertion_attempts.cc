/**
 * @file
 * Fig. 10 — average insertion attempts per workload at the §5.2
 * selected Cuckoo sizes (4x512 Shared-L2, 3x8192 Private-L2), declared
 * as one sweep spec per configuration and run on the shared pool.
 *
 * Paper shape: typically under two attempts (a vacant slot is usually
 * found at the initial lookup), larger values for the private-footprint
 * heavy workloads (DSS, em3d, ocean) in the Private-L2 system.
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

    const CmpConfigKind kinds[] = {CmpConfigKind::SharedL2,
                                   CmpConfigKind::PrivateL2};
    std::vector<SweepSpec> specs;
    for (CmpConfigKind kind : kinds) {
        SweepSpec spec = paperSweep(kind, cli);
        spec.config(configName(kind),
                    paperConfigWith(kind, selectedCuckoo(kind)));
        specs.push_back(std::move(spec));
    }
    // One flattened cell pool across both configurations' grids, so
    // --jobs parallelism spans the Shared-L2 and Private-L2 sweeps.
    const std::vector<std::vector<SweepRecord>> byKind =
        runner.runMany(specs);
    std::vector<RecordGrid> grids;
    const std::size_t workloads = specs[0].workloads().size();
    for (const auto &records : byKind)
        grids.emplace_back(records, 1, workloads);

    ReportTable table(
        "Fig. 10: Cuckoo directory average insertion attempts",
        {"workload", "Shared L2", "Private L2"});
    for (std::size_t w = 0; w < workloads; ++w) {
        std::vector<ReportCell> row;
        row.push_back(cellText(specs[0].workloads()[w].label));
        for (std::size_t k = 0; k < 2; ++k) {
            const SweepRecord *rec = grids[k].at(0, w);
            row.push_back(rec ? cellNum(rec->result.avgInsertionAttempts)
                              : cellMissing());
        }
        table.addRow(std::move(row));
    }

    Reporter report(cli.format);
    report.table(table);
    return 0;
}
