/**
 * @file
 * Example: directory capacity planning with the Cuckoo sizing rule and
 * the analytical cost model.
 *
 * Given a CMP geometry (cores, caches per core, cache capacity), applies
 * the paper's provisioning guidance — 50% steady-state occupancy is
 * conflict-free for 3-ary and wider tables (§5.1), achieved by 1x-2x
 * capacity depending on sharing (§5.2) — and reports the resulting
 * per-core energy/area next to a traditionally over-provisioned Sparse
 * 8x design. The three candidate organizations are one generic sweep
 * grid; output honours the shared --format= flag.
 *
 *   $ ./capacity_planner [cores] [caches_per_core] [cache_kib]
 */

#include <cstdio>
#include <cstdlib>

#include "common/bit_util.hh"
#include "common/types.hh"
#include "model/directory_model.hh"
#include "sim/sweep.hh"

using namespace cdir;

int
main(int argc, char **argv)
{
    const HarnessOptions cli = parseHarnessOptions(argc, argv);
    const std::size_t cores =
        argc > 1 && argv[1][0] != '-'
            ? std::strtoull(argv[1], nullptr, 10)
            : 64;
    const unsigned caches_per_core =
        argc > 2 && argv[2][0] != '-'
            ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10))
            : 2;
    const std::size_t cache_kib =
        argc > 3 && argv[3][0] != '-'
            ? std::strtoull(argv[3], nullptr, 10)
            : 64;

    const std::size_t frames = cache_kib * 1024 / blockBytes;
    const std::size_t frames_per_slice =
        frames * caches_per_core; // one slice per core

    // Sizing rule: pick the cuckoo arity by target occupancy. 1x is safe
    // when instruction/data sharing compresses distinct tags (Fig. 8);
    // private-heavy hierarchies want 1.5x (§5.2). We plan for the
    // conservative 1.5x unless the hierarchy shares a cache per core.
    const bool shared_hierarchy = caches_per_core >= 2;
    const double provisioning = shared_hierarchy ? 1.0 : 1.5;
    const unsigned ways = shared_hierarchy ? 4 : 3;
    const auto capacity = static_cast<std::size_t>(
        provisioning * double(frames_per_slice));
    const std::size_t sets_per_way =
        std::size_t{1} << ceilLog2(capacity / ways);

    Reporter report(cli.format);
    {
        char note[256];
        std::snprintf(note, sizeof note,
                      "CMP: %zu cores x %u caches (%zu KiB, %zu blocks "
                      "each); worst-case tracked blocks per slice: %zu",
                      cores, caches_per_core, cache_kib, frames,
                      frames_per_slice);
        report.note(note);
        std::snprintf(note, sizeof note,
                      "recommended Cuckoo slice: %u ways x %zu sets "
                      "(%.1fx provisioning, steady-state occupancy <= "
                      "~50%%)",
                      ways, sets_per_way, provisioning);
        report.note(note);
    }

    DirSystemParams params;
    params.numCores = cores;
    params.cachesPerCore = caches_per_core;
    params.framesPerCache = frames;
    params.cacheAssoc = 2;
    params.cuckooProvisioning = provisioning;
    params.cuckooWays = ways;

    const struct
    {
        const char *label;
        OrgModel org;
    } candidates[] = {
        {"Cuckoo Coarse", OrgModel::CuckooCoarse},
        {"Sparse 8x Coarse", OrgModel::SparseCoarse},
        {"Duplicate-Tag", OrgModel::DuplicateTag},
    };

    warnFlagUnused(cli,
                   {"filter", "trace", "scenario", "cost-model",
                    "probe-every"});
    const SweepRunner runner(cli.sweep());
    const auto costs = runner.map<DirCost>(
        std::size(candidates), [&](std::size_t i) {
            return directoryCost(candidates[i].org, params);
        });

    ReportTable table("capacity plan: per-core cost of the candidates",
                      {"organization", "energy/op (vs L2 tag)",
                       "area/core (vs 1MB L2)"});
    for (std::size_t i = 0; i < std::size(candidates); ++i) {
        table.addRow({cellText(candidates[i].label),
                      cellNum(100.0 * costs[i].energyRelative, "%.1f%%"),
                      cellNum(100.0 * costs[i].areaRelative, "%.2f%%")});
    }
    report.table(table);
    report.note("Cuckoo keeps both columns nearly flat as the core "
                "count grows (Fig. 13).");
    return 0;
}
