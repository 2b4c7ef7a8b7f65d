/**
 * @file
 * Fig. 9 — Cuckoo directory sizing sweep (§5.2).
 *
 * Evaluates the paper's exact per-slice organizations, from 2x
 * over-provisioned down to 3/8x under-provisioned, reporting the
 * suite-wide average insertion attempts (bars) and forced-invalidation
 * rate (line). Each configuration's grid — 6 sizings x 9 workloads — is
 * one sweep spec run on --jobs= worker threads.
 *
 * Paper shape: under-provisioning (<1x) explodes attempts and forced
 * invalidations exponentially; Shared-L2 needs no over-provisioning and
 * Private-L2 is clean at 1.5x.
 */

#include <cstdio>
#include <vector>

#include "sim_common.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

struct Sizing
{
    unsigned ways;
    std::size_t sets;
    const char *label;
};

void
sweep(Reporter &report, const SweepRunner &runner, const HarnessOptions &cli,
      CmpConfigKind kind, const std::vector<Sizing> &sizings)
{
    SweepSpec spec = paperSweep(kind, cli);
    for (const Sizing &s : sizings) {
        char label[64];
        std::snprintf(label, sizeof label, "%ux%zu %s", s.ways, s.sets,
                      s.label);
        spec.config(label,
                    paperConfigWith(
                        kind, cuckooSliceParams(s.ways, s.sets)));
    }
    const std::vector<SweepRecord> records = runner.run(spec);

    // Suite-wide aggregation per sizing: insertion-weighted attempt
    // mean and total forced-invalidation rate across the workloads.
    struct Totals
    {
        RunningMean attempts;
        std::uint64_t inserts = 0;
        std::uint64_t forced = 0;
        bool any = false;
    };
    std::vector<Totals> totals(sizings.size());
    for (const SweepRecord &rec : records) {
        Totals &t = totals[rec.configIndex];
        t.attempts.addWeighted(rec.result.avgInsertionAttempts,
                               rec.result.directory.insertions);
        t.inserts += rec.result.directory.insertions;
        t.forced += rec.result.directory.forcedEvictions;
        t.any = true;
    }

    ReportTable table(std::string("Fig. 9 (") + configName(kind) +
                          "): attempts and failure rates vs provisioning",
                      {"organization", "avg attempts",
                       "forced-inval rate"});
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        const Totals &t = totals[i];
        table.addRow(
            {cellText(spec.configs()[i].label),
             t.any ? cellNum(t.attempts.mean(), "%.2f") : cellMissing(),
             t.any ? cellPct(t.inserts == 0 ? 0.0
                                            : double(t.forced) /
                                                  double(t.inserts))
                   : cellMissing()});
    }
    report.table(table);
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions cli =
        parseHarnessOptions(argc, argv, kPaperGridFlags);
    const SweepRunner runner(cli.sweep());
    Reporter report(cli.format);

    sweep(report, runner, cli, CmpConfigKind::SharedL2,
          {{4, 1024, "(2x)"},
           {3, 1024, "(1.5x)"},
           {4, 512, "(1x)"},
           {3, 512, "(3/4x)"},
           {4, 256, "(1/2x)"},
           {3, 256, "(3/8x)"}});

    sweep(report, runner, cli, CmpConfigKind::PrivateL2,
          {{4, 8192, "(2x)"},
           {3, 8192, "(1.5x)"},
           {8, 2048, "(1x)"},
           {3, 4096, "(3/4x)"},
           {8, 1024, "(1/2x)"},
           {3, 2048, "(3/8x)"}});
    return 0;
}
