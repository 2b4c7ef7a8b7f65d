/**
 * @file
 * Fig. 8 — average directory occupancy per workload (§5.2).
 *
 * Runs every Table 2 workload on the Table 1 16-core CMP in both the
 * Shared-L2 and Private-L2 configurations with the §5.2-selected Cuckoo
 * directories, sampling aggregate occupancy during measurement. The two
 * per-configuration grids are declared as sweep specs and run on
 * --jobs= worker threads.
 *
 * Paper shape to reproduce: occupancy well below 1 everywhere in the
 * Shared-L2 system (shared instructions/data compress the distinct-tag
 * count, so no over-provisioning is needed), and large private
 * footprints pushing DSS/scientific workloads high in the Private-L2
 * system, with ocean the extreme (~100% unique blocks).
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

    // The paper's occupancy axis is relative to the worst-case number
    // of simultaneously tracked blocks (the aggregate cache frames) —
    // that is why ocean can read ~100% even on a 1.5x-provisioned
    // directory. We report that metric, plus the raw fraction of
    // directory slots in use for context.
    ReportTable table("Fig. 8: average directory occupancy "
                      "(% of worst-case tracked blocks)",
                      {"workload", "Shared L2", "Private L2", "raw S",
                       "raw P"});
    const std::size_t workloads = specs[0].workloads().size();
    std::vector<RecordGrid> grids;
    for (const auto &records : byKind)
        grids.emplace_back(records, 1, workloads);
    for (std::size_t w = 0; w < workloads; ++w) {
        std::vector<ReportCell> row;
        row.push_back(cellText(specs[0].workloads()[w].label));
        for (int raw = 0; raw < 2; ++raw) {
            for (std::size_t k = 0; k < 2; ++k) {
                const SweepRecord *rec = grids[k].at(0, w);
                if (rec == nullptr) {
                    row.push_back(cellMissing());
                    continue;
                }
                const double provisioning = provisioningFactor(
                    CmpConfig::paperConfig(kinds[k]),
                    selectedCuckoo(kinds[k]));
                const double occ = rec->result.avgOccupancy *
                                   (raw ? 1.0 : provisioning);
                row.push_back(cellNum(occ * 100.0, "%.1f%%"));
            }
        }
        table.addRow(std::move(row));
    }

    Reporter report(cli.format);
    report.table(table);
    return 0;
}
