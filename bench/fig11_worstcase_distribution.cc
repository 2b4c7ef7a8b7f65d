/**
 * @file
 * Fig. 11 — worst-case insertion-attempt distributions (§5.3).
 *
 * Reproduces the paper's two longest-tail cases: OLTP Oracle on the
 * Shared-L2 configuration and ocean on the Private-L2 configuration
 * (two single-cell sweep specs, run concurrently with --jobs=2),
 * plotting the percentage of insert operations per attempt count
 * (1..32). The paper reports the 1-attempt mass separately (85% Oracle,
 * 73% ocean) and emphasizes the geometric decay of the tail with no
 * peak at 32 (no loops).
 */

#include <cstdio>
#include <vector>

#include "sim_common.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

SweepSpec
worstCase(CmpConfigKind kind, PaperWorkload workload,
          const HarnessOptions &cli)
{
    SweepSpec spec;
    spec.options("", cli.applyOverrides(optionsFor(kind, cli.scale)));
    spec.workload(paperWorkloadName(workload),
                  paperWorkloadParams(workload,
                                      kind == CmpConfigKind::PrivateL2));
    spec.config(configName(kind),
                paperConfigWith(kind, selectedCuckoo(kind)));
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions cli = parseHarnessOptions(
        argc, argv, kRunGridFlags | kCostModelFlag);
    const SweepRunner runner(cli.sweep());

    // Both worst cases form one two-cell grid; map() runs the two
    // single-cell specs concurrently when --jobs >= 2 (each inner
    // runner is serial but keeps the CLI filter).
    const SweepSpec specs[] = {
        worstCase(CmpConfigKind::SharedL2, PaperWorkload::OltpOracle, cli),
        worstCase(CmpConfigKind::PrivateL2, PaperWorkload::SciOcean, cli),
    };
    const SweepRunner cellRunner(SweepOptions{1, cli.filter});
    const auto results = runner.map<std::vector<SweepRecord>>(
        2, [&](std::size_t i) { return cellRunner.run(specs[i]); });
    const auto &oracle = results[0];
    const auto &ocean = results[1];
    if (oracle.empty() || ocean.empty()) {
        std::fprintf(stderr, "fig11 needs both worst-case cells\n");
        return 1;
    }
    const Histogram &oracleHist = oracle[0].result.attemptHistogram;
    const Histogram &oceanHist = ocean[0].result.attemptHistogram;

    Reporter report(cli.format);
    char note[160];
    std::snprintf(note, sizeof note,
                  "values at 1 attempt, reported separately in the "
                  "paper: Oracle %.1f%%, ocean %.1f%%",
                  oracleHist.fraction(1) * 100.0,
                  oceanHist.fraction(1) * 100.0);
    report.note(note);

    ReportTable table("Fig. 11: worst-case insertion attempt distributions",
                      {"attempts", "OLTP Oracle (Shared L2)",
                       "ocean (Private L2)"});
    for (std::size_t a = 2; a <= 32; ++a) {
        table.addRow({cellNum(double(a), "%.0f"),
                      cellNum(oracleHist.fraction(a) * 100.0, "%.3f%%"),
                      cellNum(oceanHist.fraction(a) * 100.0, "%.3f%%")});
    }
    report.table(table);

    // Tail sanity per the paper: geometric decay, no peak at the bound.
    std::snprintf(note, sizeof note,
                  "mass at 32 attempts: Oracle %g%%, ocean %g%% "
                  "(paper: nearly zero, no loop peak)",
                  oracleHist.fraction(32) * 100.0,
                  oceanHist.fraction(32) * 100.0);
    report.note(note);
    return 0;
}
