/**
 * @file
 * Fig. 4 — per-core area and energy scalability of prior directory
 * organizations, 16 to 1024 cores (§3).
 *
 * System per the figure caption: 16-way private L2 caches, two caches
 * per core [I+D]. Organizations: Duplicate-Tag, Tagless, Sparse 8x
 * (full vector), In-Cache, Sparse 8x Hierarchical, Sparse 8x Coarse.
 * The organization x core-count grid runs through the sweep runner's
 * generic map (the cost model is analytical — no simulation).
 *
 * Axes as in the paper: energy relative to a 1MB 16-way L2 tag lookup,
 * area relative to a 1MB L2 data array; both per core (per slice).
 *
 * Paper shape: Duplicate-Tag and Tagless energy grow linearly per core
 * (quadratic aggregate); full-vector and in-cache area grow linearly
 * per core; Coarse/Hierarchical are flat but sit high due to the 8x
 * capacity over-provisioning.
 */

#include <cstdio>
#include <vector>

#include "model/directory_model.hh"
#include "sharers/sharer_set.hh"
#include "sim/sweep.hh"

using namespace cdir;

namespace {

DirSystemParams
fig4System(std::size_t cores)
{
    DirSystemParams p;
    p.numCores = cores;
    p.cachesPerCore = 2;      // I+D (figure caption)
    p.framesPerCache = 16384; // 1MB 16-way private L2
    p.cacheAssoc = 16;
    return p;
}

const std::vector<std::pair<OrgModel, const char *>> kOrgs = {
    {OrgModel::DuplicateTag, "Duplicate-Tag"},
    {OrgModel::Tagless, "Tagless"},
    {OrgModel::SparseFull, "Sparse 8x"},
    {OrgModel::InCache, "In-Cache"},
    {OrgModel::SparseHier, "Sparse 8x Hier."},
    {OrgModel::SparseCoarse, "Sparse 8x Coarse"},
};

const std::size_t kCores[] = {16,  32,   64,   128,  256,
                              512, 1024, 2048, 4096};
constexpr std::size_t kCorePoints = std::size(kCores);

/**
 * Cross-check the analytical sharer-field widths against the
 * simulator's sharerStorageBits() at every grid point — the model and
 * the executable directories must charge the same bits per entry, or
 * the Fig. 4 curves describe a different machine than the one
 * ext_scalability_sim measures. @return mismatch count (0 = consistent).
 */
std::size_t
crossCheckSharerBits()
{
    const std::pair<OrgModel, SharerFormat> pairs[] = {
        {OrgModel::SparseFull, SharerFormat::FullVector},
        {OrgModel::SparseCoarse, SharerFormat::CoarseVector},
        {OrgModel::SparseHier, SharerFormat::Hierarchical},
    };
    std::size_t mismatches = 0;
    for (const std::size_t cores : kCores) {
        const std::size_t caches = fig4System(cores).numCaches();
        for (const auto &[org, format] : pairs) {
            const double model = modelSharerFieldBits(org, caches);
            const unsigned sim = sharerStorageBits(format, caches);
            if (model != double(sim)) {
                std::fprintf(stderr,
                             "fig04: sharer-bits mismatch at %zu "
                             "caches: model(%s) = %.1f, "
                             "sharerStorageBits = %u\n",
                             caches, orgModelName(org).c_str(), model,
                             sim);
                ++mismatches;
            }
        }
    }
    return mismatches;
}

std::vector<std::string>
coreColumns()
{
    std::vector<std::string> columns{"organization"};
    for (std::size_t c : kCores)
        columns.push_back(std::to_string(c));
    return columns;
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions cli =
        parseHarnessOptions(argc, argv, kMapGridFlags);
    const SweepRunner runner(cli.sweep());

    // One grid cell per (organization, core count).
    const std::size_t cells = kOrgs.size() * kCorePoints;
    const auto costs = runner.map<DirCost>(cells, [](std::size_t i) {
        const auto &[org, label] = kOrgs[i / kCorePoints];
        return directoryCost(org, fig4System(kCores[i % kCorePoints]));
    });

    Reporter report(cli.format);
    const struct
    {
        const char *title;
        bool energy;
        const char *fmt;
    } tables[] = {
        {"Fig. 4 (top): per-core directory area, % of 1MB L2 data array",
         false, "%.2f%%"},
        {"Fig. 4 (bottom): per-core directory energy, % of 1MB L2 tag "
         "lookup",
         true, "%.0f%%"},
    };
    for (const auto &spec : tables) {
        ReportTable table(spec.title, coreColumns());
        for (std::size_t o = 0; o < kOrgs.size(); ++o) {
            std::vector<ReportCell> row{cellText(kOrgs[o].second)};
            for (std::size_t c = 0; c < kCorePoints; ++c) {
                const DirCost &cost = costs[o * kCorePoints + c];
                const double rel = spec.energy ? cost.energyRelative
                                               : cost.areaRelative;
                row.push_back(cellNum(rel * 100.0, spec.fmt));
            }
            table.addRow(std::move(row));
        }
        report.table(table);
    }

    // Analytical-vs-simulator storage consistency (also exercised at
    // 2048/4096 cores, beyond the paper's 1024-core axis).
    if (const std::size_t mismatches = crossCheckSharerBits()) {
        std::fprintf(stderr,
                     "fig04: %zu sharer-bits mismatch(es) between the "
                     "analytical model and the simulator\n",
                     mismatches);
        return 1;
    }
    return 0;
}
