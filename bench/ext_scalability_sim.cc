/**
 * @file
 * Beyond-the-paper extension: an *empirical* companion to Fig. 4 —
 * thousand-core scalability measured by simulation instead of the
 * analytical area/energy model.
 *
 * Fig. 4 argues scalability from closed-form storage and energy
 * expressions. This harness builds the actual CMPs — 256, 1024, and
 * 4096 cores, one directory slice per core — runs the DB2 sharing
 * profile through them, and reports what the model cannot: measured
 * occupancy, insertion attempts, invalidation rates, per-cell host
 * memory (deterministic estimate + peak RSS), and wall-clock.
 *
 * Grid:
 *  - 256 cores: every registered organization, full-vector sharer
 *    format (the paper-faithful row; mirroring organizations fit
 *    because the private cache has >= numSlices sets).
 *  - 1024 / 4096 cores: the memory-lean subset — Cuckoo with the
 *    compressed format, Sparse with the hierarchical and coarse
 *    formats. Every format keeps a set whose sharers fit one 64-cache
 *    span inline and spills wider sets to a per-slice block pool
 *    (sharers/sharer_set.hh), so the host cost is the same for all of
 *    them; the formats differ in the modelled "sharer bits" column.
 *
 * One measured effect the analytical model cannot see: the workload
 * reproduces the Solaris page-coloring address structure (§5.1,
 * Fig. 3), and the DB2 per-core private footprint spans only 8 page
 * colors. Slice interleaving uses the low address bits, so at 4096
 * slices private blocks can reach only 1024 distinct slices — those
 * slices run at ~4x demand, and even the Cuckoo directory saturates
 * (insertion attempts hit the §4.2 bound) while aggregate occupancy
 * reads low. At 256 and 1024 slices the same system is conflict-free.
 * The conventional Sparse design additionally thrashes at *every*
 * tier, exactly the Fig. 3 set-conflict story.
 *
 * RAM budget: the largest cell (4096c Sparse, 2x provisioned) stays
 * under ~1.5 GB; run the 4096-core rows with --jobs=1 or 2 on small
 * machines. CSV columns are ordered determinism-first: every column
 * except the trailing wall_s / peak_rss_mb pair is bit-identical at
 * any --jobs setting (the CI smoke diffs the CSV with the
 * environmental tail cut off).
 *
 *   $ ./ext_scalability_sim                        # full grid
 *   $ ./ext_scalability_sim --max-cores=256 --format=csv
 *   $ ./ext_scalability_sim --campaign-manifest=grid.json
 *
 * Shared flags apply (--jobs/--format/--filter/--scale/
 * --warmup/--measure/--campaign-manifest/--campaign-results);
 * --max-cores=N drops the rows above N cores before the grid is built,
 * so a bounded run (or campaign manifest) contains only the cells it
 * will execute.
 */

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "sharers/sharer_set.hh"
#include "sim/campaign.hh"
#include "sim_common.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

/** One organization row of a core-count tier. */
struct OrgPoint
{
    const char *label;       //!< row label ("Sparse (hier)")
    const char *organization; //!< organization table name
    SharerFormat format = SharerFormat::FullVector;
    unsigned ways = 4;
    std::size_t sets = 512;
};

/**
 * Per-slice sizings against the 1x baseline of 1024 tracked frames per
 * slice (numSlices == numCores, one 1024-frame cache per core): Cuckoo
 * at 1x as the paper selects it, conventional tagged designs at 2x.
 * Mirroring organizations (Duplicate-Tag, Tagless) size themselves
 * from the mirrored cache geometry; In-Cache models the shared-cache
 * tag array, sized 2x here like the other conventional designs.
 */
std::vector<OrgPoint>
tierOrganizations(std::size_t cores)
{
    if (cores <= 256) {
        return {
            {"Cuckoo", "Cuckoo", SharerFormat::FullVector, 4, 256},
            {"Sparse", "Sparse", SharerFormat::FullVector, 8, 256},
            {"Skewed", "Skewed", SharerFormat::FullVector, 4, 512},
            {"Elbow", "Elbow", SharerFormat::FullVector, 4, 512},
            {"InCache", "InCache", SharerFormat::FullVector, 8, 256},
            {"DuplicateTag", "DuplicateTag"},
            {"Tagless", "Tagless"},
        };
    }
    return {
        {"Cuckoo (compressed)", "Cuckoo", SharerFormat::Compressed, 4,
         256},
        {"Sparse (hier)", "Sparse", SharerFormat::Hierarchical, 8, 256},
        {"Sparse (coarse)", "Sparse", SharerFormat::CoarseVector, 8,
         256},
    };
}

/** The CMP of one (cores, organization) cell: one slice per core, one
 *  64KB private cache per core. */
CmpConfig
tierConfig(std::size_t cores, const OrgPoint &org)
{
    CmpConfig cfg;
    cfg.kind = CmpConfigKind::PrivateL2;
    cfg.numCores = cores;
    cfg.numSlices = cores;
    cfg.privateCache = CacheConfig{512, 2}; // 1024 frames per core
    cfg.directory.organization = org.organization;
    cfg.directory.format = org.format;
    cfg.directory.ways = org.ways;
    cfg.directory.sets = org.sets;
    return cfg;
}

/** Run lengths scaled so warmup touches the aggregate frame pool at
 *  every tier (4x the frames in accesses) and measurement stays
 *  proportional. */
ExperimentOptions
tierOptions(std::size_t cores, const HarnessOptions &cli)
{
    ExperimentOptions opts;
    opts.warmupAccesses = cores * 4096 * cli.scale;
    opts.measureAccesses = cores * 2048 * cli.scale;
    opts.occupancySampleEvery = 10'000;
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t maxCores = 4096;
    const HarnessOptions cli = parseHarnessOptions(
        argc, argv, kRunGridFlags | kCampaignFlags,
        {countFlag("max-cores", maxCores, 0,
                   "drop the core-count tiers above N (default 4096)")});

    std::vector<std::size_t> tiers;
    for (const std::size_t cores : {256, 1024, 4096})
        if (cores <= maxCores)
            tiers.push_back(cores);
    if (tiers.empty()) {
        std::fprintf(stderr,
                     "ext_scalability_sim: --max-cores=%llu leaves no "
                     "core-count tier (smallest is 256)\n",
                     static_cast<unsigned long long>(maxCores));
        return 2;
    }

    // One sweep spec per core count (the configs differ per tier), all
    // flattened into one cell pool / one campaign grid.
    std::vector<SweepSpec> specs;
    for (const std::size_t cores : tiers) {
        SweepSpec spec;
        spec.options("", cli.applyOverrides(tierOptions(cores, cli)));
        for (const OrgPoint &org : tierOrganizations(cores))
            spec.config(std::to_string(cores) + "c " + org.label,
                        tierConfig(cores, org));
        spec.workload("DB2", paperWorkloadParams(PaperWorkload::OltpDb2,
                                                 false, cores));
        specs.push_back(std::move(spec));
    }

    const SweepRunner runner(cli.sweep());
    const std::vector<std::vector<SweepRecord>> byTier =
        campaignRunMany(cli, runner, std::span<const SweepSpec>(specs),
                        "ext_scalability_sim");

    Reporter report(cli.format);
    report.note(
        "empirical Fig. 4 companion: measured thousand-core scaling "
        "(one slice per core; DB2 profile). All columns except the "
        "trailing wall_s / peak_rss_mb pair are bit-identical at any "
        "--jobs setting; est_mem_mb is the deterministic "
        "host-byte estimate of the simulated caches + directory "
        "slices, peak_rss_mb the process high-water mark (0 when the "
        "row was loaded from a campaign checkpoint).");

    ReportTable table("measured scalability by core count",
                      {"organization", "cores", "entries/slice",
                       "sharer bits", "occupancy", "avg attempts",
                       "forced inv/1k", "sharing inv/1k", "est_mem_mb",
                       "wall_s", "peak_rss_mb"});
    for (std::size_t t = 0; t < byTier.size(); ++t) {
        const std::size_t cores = tiers[t];
        const auto orgs = tierOrganizations(cores);
        for (const SweepRecord &rec : byTier[t]) {
            const ExperimentResult &r = rec.result;
            const double perK =
                r.system.accesses
                    ? 1000.0 / double(r.system.accesses)
                    : 0.0;
            const OrgPoint &org = orgs[rec.configIndex];
            // PrivateL2: one cache per core, so caches == cores.
            const unsigned sharerBits =
                sharerStorageBits(org.format, cores);
            table.addRow(
                {cellText(rec.configLabel),
                 cellNum(double(cores), "%.0f"),
                 cellNum(double(r.directoryCapacity / cores), "%.0f"),
                 cellNum(double(sharerBits), "%.0f"),
                 cellPct(r.avgOccupancy),
                 cellNum(r.avgInsertionAttempts, "%.3f"),
                 cellNum(double(r.system.forcedInvalidations) * perK,
                         "%.3f"),
                 cellNum(double(r.system.sharingInvalidations) * perK,
                         "%.3f"),
                 cellNum(double(r.estimatedBytes) / (1024.0 * 1024.0),
                         "%.1f"),
                 cellNum(r.wallSeconds, "%.2f"),
                 cellNum(double(r.peakRssBytes) / (1024.0 * 1024.0),
                         "%.1f")});
        }
    }
    report.table(table);
    return 0;
}
