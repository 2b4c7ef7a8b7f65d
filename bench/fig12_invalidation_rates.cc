/**
 * @file
 * Fig. 12 — forced-invalidation-rate comparison (§5.4).
 *
 * For every Table 2 workload and both system configurations, compares
 * the invalidation rate (forced directory evictions as a fraction of
 * directory entry insertions) of:
 *   a) Sparse 2x  — 8-way set-associative, 2x capacity;
 *   b) Sparse 8x  — 8-way set-associative, 8x capacity;
 *   c) Skewed 2x  — 4-way skewed-associative, 2x capacity;
 *   d) Cuckoo     — 4x512 (1x) Shared-L2 / 3x8192 (1.5x) Private-L2.
 *
 * Each configuration is one 4-organization x 9-workload sweep spec run
 * on the shared pool — the largest grid in the suite (72 cells total).
 *
 * Paper shape: Sparse 2x conflicts on nearly every workload; Skewed 2x
 * helps on server workloads but not scientific ones; Sparse 8x is
 * better but still significant; the Cuckoo directory — with *less*
 * capacity and associativity — is near zero everywhere (ocean worst
 * case 0.08% at 1.5x).
 */

#include <vector>

#include "sim/campaign.hh"
#include "sim_common.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

struct Org
{
    const char *label;
    DirectoryParams params;
};

SweepSpec
compareSpec(const HarnessOptions &cli, CmpConfigKind kind,
            const std::vector<Org> &orgs)
{
    SweepSpec spec = paperSweep(kind, cli);
    for (const Org &o : orgs)
        spec.config(o.label, paperConfigWith(kind, o.params));
    return spec;
}

void
emitComparison(Reporter &report, const SweepSpec &spec,
               const std::vector<SweepRecord> &records,
               CmpConfigKind kind, const std::vector<Org> &orgs)
{
    const std::size_t workloads = spec.workloads().size();
    const RecordGrid grid(records, orgs.size(), workloads);

    std::vector<std::string> columns{"workload"};
    for (const Org &o : orgs)
        columns.push_back(o.label);
    ReportTable table(std::string("Fig. 12 (") + configName(kind) +
                          "): invalidation rates "
                          "(% of directory insertions)",
                      std::move(columns));
    for (std::size_t w = 0; w < workloads; ++w) {
        std::vector<ReportCell> row;
        row.push_back(cellText(spec.workloads()[w].label));
        for (std::size_t c = 0; c < orgs.size(); ++c) {
            const SweepRecord *rec = grid.at(c, w);
            row.push_back(
                rec ? cellPct(rec->result.forcedInvalidationRate)
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
    const HarnessOptions cli =
        parseHarnessOptions(argc, argv, kAllSharedFlags);
    const SweepRunner runner(cli.sweep());

    // Per-slice frame baseline: 2048 (Shared-L2), 16384 (Private-L2).
    const CmpConfigKind kinds[] = {CmpConfigKind::SharedL2,
                                   CmpConfigKind::PrivateL2};
    const std::vector<Org> orgsByKind[] = {
        {{"Sparse 2x", sparseSliceParams(8, 512)},
         {"Sparse 8x", sparseSliceParams(8, 2048)},
         {"Skewed 2x", skewedSliceParams(4, 1024)},
         {"Cuckoo 1x", cuckooSliceParams(4, 512)}},
        {{"Sparse 2x", sparseSliceParams(8, 4096)},
         {"Sparse 8x", sparseSliceParams(8, 16384)},
         {"Skewed 2x", skewedSliceParams(4, 8192)},
         {"Cuckoo 1.5x", cuckooSliceParams(3, 8192)}},
    };

    // Both configurations' grids (the suite's largest: 72 cells) run as
    // one flattened cell pool, so --jobs parallelism never drains while
    // the second grid waits. campaignRunMany additionally honours
    // --campaign-manifest / --campaign-results, making this grid a
    // multi-process campaign.
    std::vector<SweepSpec> specs;
    for (std::size_t k = 0; k < 2; ++k)
        specs.push_back(compareSpec(cli, kinds[k], orgsByKind[k]));
    const std::vector<std::vector<SweepRecord>> byKind =
        campaignRunMany(cli, runner, specs, "fig12");

    Reporter report(cli.format);
    for (std::size_t k = 0; k < 2; ++k)
        emitComparison(report, specs[k], byKind[k], kinds[k],
                       orgsByKind[k]);
    return 0;
}
