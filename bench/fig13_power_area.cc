/**
 * @file
 * Fig. 13 — power and area comparison of directory organizations,
 * including the Cuckoo directory, 16 to 1024 cores (§5.6).
 *
 * Two systems:
 *   Shared-L2  — split I/D 64KB L1s tracked (Cuckoo at 1x, 4 ways);
 *   Private-L2 — 1MB 16-way private L2s tracked (Cuckoo at 1.5x, 3
 *                ways), where In-Cache is not applicable (§5.6).
 *
 * Organizations: Duplicate-Tag, Tagless, Sparse 8x (full vector),
 * In-Cache, Sparse 8x Hierarchical, Sparse 8x Coarse, Cuckoo
 * Hierarchical, Cuckoo Coarse. The (system, organization, core-count)
 * grid runs through the sweep runner's generic map. Axes as in the
 * paper (energy relative to an L2 tag lookup, area relative to a 1MB
 * data array, per core).
 *
 * Paper headlines: Cuckoo Coarse/Hier stay flat in both energy and
 * area; >=7x area advantage over Sparse 8x Coarse/Hier; Tagless and
 * Duplicate-Tag energy become prohibitive at high core counts; the
 * Shared-L2 Cuckoo directory is under 3% of L2 area at 1024 cores.
 */

#include <cstdio>
#include <vector>

#include "model/directory_model.hh"
#include "sim/sweep.hh"

using namespace cdir;

namespace {

DirSystemParams
sharedSystem(std::size_t cores)
{
    DirSystemParams p;
    p.numCores = cores;
    p.cachesPerCore = 2;
    p.framesPerCache = 1024; // 64KB L1
    p.cacheAssoc = 2;
    p.cuckooProvisioning = 1.0; // §5.2
    p.cuckooWays = 4;
    p.cuckooAvgAttempts = 1.2;  // measured, Fig. 10 Shared-L2
    return p;
}

DirSystemParams
privateSystem(std::size_t cores)
{
    DirSystemParams p;
    p.numCores = cores;
    p.cachesPerCore = 1;
    p.framesPerCache = 16384; // 1MB L2
    p.cacheAssoc = 16;
    p.cuckooProvisioning = 1.5; // §5.2
    p.cuckooWays = 3;
    p.cuckooAvgAttempts = 1.4;  // measured, Fig. 10 Private-L2
    return p;
}

const std::vector<std::pair<OrgModel, const char *>> kOrgs = {
    {OrgModel::DuplicateTag, "Duplicate-Tag"},
    {OrgModel::Tagless, "Tagless"},
    {OrgModel::SparseFull, "Sparse 8x"},
    {OrgModel::InCache, "In-Cache"},
    {OrgModel::SparseHier, "Sparse 8x Hier."},
    {OrgModel::SparseCoarse, "Sparse 8x Coarse"},
    {OrgModel::CuckooHier, "Cuckoo Hier."},
    {OrgModel::CuckooCoarse, "Cuckoo Coarse"},
};

const std::size_t kCores[] = {16, 32, 64, 128, 256, 512, 1024};
constexpr std::size_t kCorePoints = std::size(kCores);

struct System
{
    const char *label;
    bool isPrivate;
    DirSystemParams (*params)(std::size_t);
};

const System kSystems[] = {
    {"Shared L2", false, sharedSystem},
    {"Private L2", true, privateSystem},
};

bool
applicable(const System &sys, OrgModel org)
{
    // Private L2s cannot include one another (§5.6).
    return !(sys.isPrivate && org == OrgModel::InCache);
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions cli =
        parseHarnessOptions(argc, argv, kMapGridFlags);
    const SweepRunner runner(cli.sweep());

    // Grid: system-major, then organization, then core count.
    const std::size_t cells = 2 * kOrgs.size() * kCorePoints;
    const auto costs = runner.map<DirCost>(cells, [](std::size_t i) {
        const System &sys = kSystems[i / (kOrgs.size() * kCorePoints)];
        const std::size_t rem = i % (kOrgs.size() * kCorePoints);
        const OrgModel org = kOrgs[rem / kCorePoints].first;
        if (!applicable(sys, org))
            return DirCost{};
        return directoryCost(org, sys.params(kCores[rem % kCorePoints]));
    });
    const auto costAt = [&](std::size_t sys, std::size_t org,
                            std::size_t core) -> const DirCost & {
        return costs[(sys * kOrgs.size() + org) * kCorePoints + core];
    };

    std::vector<std::string> columns{"organization"};
    for (std::size_t c : kCores)
        columns.push_back(std::to_string(c));

    Reporter report(cli.format);
    for (const bool energy : {true, false}) {
        for (std::size_t s = 0; s < 2; ++s) {
            std::string title = "Fig. 13: ";
            title += energy ? "energy, " : "area, ";
            title += kSystems[s].label;
            title += energy ? " (% of L2 tag lookup, per core)"
                            : " (% of 1MB L2 data array, per core)";
            ReportTable table(std::move(title), columns);
            for (std::size_t o = 0; o < kOrgs.size(); ++o) {
                std::vector<ReportCell> row{cellText(kOrgs[o].second)};
                if (!applicable(kSystems[s], kOrgs[o].first)) {
                    for (std::size_t c = 0; c < kCorePoints; ++c)
                        row.push_back(cellText("n/a"));
                } else {
                    for (std::size_t c = 0; c < kCorePoints; ++c) {
                        const DirCost &cost = costAt(s, o, c);
                        row.push_back(
                            cellNum((energy ? cost.energyRelative
                                            : cost.areaRelative) *
                                        100.0,
                                    energy ? "%.0f%%" : "%.2f%%"));
                    }
                }
                table.addRow(std::move(row));
            }
            report.table(table);
        }
    }

    // Headline ratios quoted in §1/§7.
    ReportTable headlines(
        "Headline ratios, Shared L2 (DupTag & Tagless vs Cuckoo energy; "
        "Sparse 8x vs Cuckoo area)",
        {"cores", "DupTag/Cuckoo energy", "Tagless/Cuckoo energy",
         "Sparse8x/Cuckoo area", "Cuckoo area % of L2"});
    for (std::size_t c : {std::size_t{0}, kCorePoints - 1}) {
        const auto sys = sharedSystem(kCores[c]);
        const double dup =
            directoryCost(OrgModel::DuplicateTag, sys).energyPerOp;
        const double tagless =
            directoryCost(OrgModel::Tagless, sys).energyPerOp;
        const double sparse_area =
            directoryCost(OrgModel::SparseCoarse, sys).areaBitsPerCore;
        const auto cuckoo = directoryCost(OrgModel::CuckooCoarse, sys);
        headlines.addRow(
            {cellNum(double(kCores[c]), "%.0f"),
             cellNum(dup / cuckoo.energyPerOp, "%.1fx"),
             cellNum(tagless / cuckoo.energyPerOp, "%.1fx"),
             cellNum(sparse_area / cuckoo.areaBitsPerCore, "%.1fx"),
             cellNum(cuckoo.areaRelative * 100.0, "%.2f%%")});
    }
    report.table(headlines);
    return 0;
}
