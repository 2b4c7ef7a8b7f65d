/**
 * @file
 * Shared setup for the simulation-driven figure harnesses (Figs. 8-12):
 * the Table 1 system configurations, the §5.2 directory sizings, and
 * sweep-spec builders over the Table 2 workload suite.
 *
 * A harness declares its grid by taking `paperSweep(kind, cli)` — the
 * nine-workload axis with the per-configuration run lengths — and
 * appending one config axis point per directory sizing it evaluates;
 * `SweepRunner` (src/sim/sweep.hh) runs the cells in parallel. Such a
 * harness parses its command line with
 * `parseHarnessOptions(argc, argv, kPaperGridFlags)`: paperSweep()
 * honours every flag of that set, and no other.
 */

#ifndef CDIR_BENCH_SIM_COMMON_HH
#define CDIR_BENCH_SIM_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace cdir::bench {

/** Experiment lengths tuned per configuration (caches warm slower in
 *  the Private-L2 system, whose aggregate footprint is 8x larger). */
inline ExperimentOptions
optionsFor(CmpConfigKind kind, std::uint64_t scale)
{
    ExperimentOptions opts;
    if (kind == CmpConfigKind::SharedL2) {
        opts.warmupAccesses = 1'000'000 * scale;
        opts.measureAccesses = 1'000'000 * scale;
    } else {
        opts.warmupAccesses = 3'000'000 * scale;
        opts.measureAccesses = 2'000'000 * scale;
    }
    opts.occupancySampleEvery = 10'000;
    return opts;
}

/** Table 1 configuration for @p kind with @p dir as its directory. */
inline CmpConfig
paperConfigWith(CmpConfigKind kind, const DirectoryParams &dir)
{
    CmpConfig cfg = CmpConfig::paperConfig(kind);
    cfg.directory = dir;
    return cfg;
}

/**
 * Sweep spec over the workload axis for @p kind, with the tuned run
 * lengths (respecting the CLI --scale/--warmup/--measure). The axis is
 * the full Table 2 suite — or, with --trace=<file|dir>, one point per
 * recorded trace file replayed through the grid; or, with
 * --scenario=<name|file>[,...], one point per phased scenario. With
 * --cost-model= the options axis carries one point per selected model
 * (timing never changes the behavioural counters, so figure pivots
 * stay well-defined); untimed by default. The caller appends its
 * config axis points.
 */
inline SweepSpec
paperSweep(CmpConfigKind kind, const HarnessOptions &cli)
{
    SweepSpec spec;
    appendCostModelOptions(
        spec, "", cli.applyOverrides(optionsFor(kind, cli.scale)), cli);
    if (!cli.trace.empty()) {
        try {
            appendTraceWorkloads(spec, cli.trace);
        } catch (const std::runtime_error &e) {
            // A bad --trace path is an operator error, not a bug:
            // exit cleanly instead of aborting through an uncaught
            // exception in the harness main.
            std::fprintf(stderr, "--trace: %s\n", e.what());
            std::exit(2);
        }
        return spec;
    }
    if (!cli.scenario.empty()) {
        try {
            // The paper grids all run Table 1 CMPs, so an over-wide
            // scenario file is rejected up front instead of emptying
            // the table one thrown cell at a time.
            appendScenarioWorkloads(
                spec, cli.scenario,
                CmpConfig::paperConfig(kind).numCores);
        } catch (const std::runtime_error &e) {
            std::fprintf(stderr, "--scenario: %s\n", e.what());
            std::exit(2);
        }
        return spec;
    }
    const bool private_l2 = kind == CmpConfigKind::PrivateL2;
    for (PaperWorkload w : allPaperWorkloads())
        spec.workload(paperWorkloadName(w),
                      paperWorkloadParams(w, private_l2));
    return spec;
}

/**
 * Comparison sizing per organization on the 16-core Shared-L2 CMP
 * (2048 frames per slice): the paper's selected Cuckoo (1x) against
 * 2x-provisioned Sparse/Skewed/Elbow, the §2 exact designs, InCache and
 * Tagless on their defaults.
 */
inline DirectoryParams
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

/** The §5.2 selected Cuckoo sizings. */
inline DirectoryParams
selectedCuckoo(CmpConfigKind kind)
{
    // Shared-L2: 4x512 per slice (1x); Private-L2: 3x8192 (1.5x).
    return kind == CmpConfigKind::SharedL2 ? cuckooSliceParams(4, 512)
                                           : cuckooSliceParams(3, 8192);
}

inline const char *
configName(CmpConfigKind kind)
{
    return kind == CmpConfigKind::SharedL2 ? "Shared L2" : "Private L2";
}

/**
 * Pivot helper: records of one sweep indexed by (configIndex,
 * workloadIndex), so harnesses can lay out workload-rows x config-
 * columns tables with '-' for filtered-out cells.
 */
class RecordGrid
{
  public:
    RecordGrid(const std::vector<SweepRecord> &records,
               std::size_t num_configs, std::size_t num_workloads)
        : configs(num_configs), cells(num_configs * num_workloads, nullptr)
    {
        for (const SweepRecord &rec : records)
            cells[rec.workloadIndex * configs + rec.configIndex] = &rec;
    }

    /** Record at (config, workload), or nullptr if filtered out. */
    const SweepRecord *
    at(std::size_t config, std::size_t workload) const
    {
        return cells[workload * configs + config];
    }

  private:
    std::size_t configs;
    std::vector<const SweepRecord *> cells;
};

} // namespace cdir::bench

#endif // CDIR_BENCH_SIM_COMMON_HH
