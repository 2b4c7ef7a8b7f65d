/**
 * @file
 * Ablation of the §6 design alternatives around the Cuckoo directory:
 *
 *  - **Elbow** (Spjuth [37,38]): skewed lookup, at most one
 *    displacement. The paper argues it needs extra lookups yet still
 *    forces more invalidations than the Cuckoo organization.
 *  - **Bucketized cuckoo** (Panigrahy [30]): multiple entries per
 *    bucket; §6 suggests it could let a cheaper 3-ary design replace
 *    the 4-ary at high occupancy.
 *  - **Stash** (Kirsch et al. [22]): a small CAM absorbing overflow.
 *    §6 argues the directory can simply invalidate on rare overflow and
 *    "does not benefit from a stash".
 *
 * All variants churn random tags at fixed steady-state occupancies and
 * report forced-invalidation rates, plus average attempts for the
 * displacement-based designs. The variant x occupancy grid runs once
 * through the sweep runner's generic map (each cell owns its directory
 * and RNG) and feeds both tables.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "directory/cuckoo_directory.hh"
#include "sim/sweep.hh"

using namespace cdir;

namespace {

constexpr std::size_t kCaches = 16;
constexpr std::size_t kEntries = 4096;

const double kOccupancies[] = {0.50, 0.65, 0.80, 0.90};
constexpr std::size_t kOccPoints = std::size(kOccupancies);

struct Outcome
{
    double attempts = 0.0;
    double invalRate = 0.0;
};

Outcome
churn(Directory &dir, double occupancy, std::uint64_t ops,
      std::uint64_t seed)
{
    Rng rng(seed);
    DirAccessContext ctx = dir.makeContext();
    std::vector<Tag> live;
    const auto target =
        static_cast<std::size_t>(occupancy * double(dir.capacity()));
    for (std::uint64_t op = 0; op < ops; ++op) {
        if (live.size() >= target) {
            const std::size_t k = rng.below(live.size());
            dir.removeSharer(live[k], 0);
            live[k] = live.back();
            live.pop_back();
            continue;
        }
        const Tag tag = rng.next() >> 4;
        if (dir.probe(tag))
            continue;
        ctx.reset();
        dir.access(DirRequest{tag, 0, false}, ctx);
        if (!ctx.back().insertDiscarded)
            live.push_back(tag);
    }
    return {dir.stats().insertionAttempts.mean(),
            dir.stats().forcedInvalidationRate()};
}

struct Variant
{
    const char *label;
    std::unique_ptr<Directory> (*make)();
};

const Variant kVariants[] = {
    {"Skewed 4w (no displace)",
     [] {
         DirectoryParams p;
         p.organization = "Skewed";
         p.numCaches = kCaches;
         p.ways = 4;
         p.sets = kEntries / 4;
         return makeDirectory(p);
     }},
    {"Elbow 4w (1 displace)",
     [] {
         DirectoryParams p;
         p.organization = "Elbow";
         p.numCaches = kCaches;
         p.ways = 4;
         p.sets = kEntries / 4;
         return makeDirectory(p);
     }},
    {"Cuckoo 4w",
     []() -> std::unique_ptr<Directory> {
         return std::make_unique<CuckooDirectory>(
             kCaches, 4, kEntries / 4, SharerFormat::FullVector);
     }},
    {"Cuckoo 3w",
     []() -> std::unique_ptr<Directory> {
         return std::make_unique<CuckooDirectory>(
             kCaches, 3, kEntries / 4, SharerFormat::FullVector,
             HashKind::Skewing, 32, 1, 1, 0);
     }},
    {"Cuckoo 3w, 2-slot buckets",
     []() -> std::unique_ptr<Directory> {
         return std::make_unique<CuckooDirectory>(
             kCaches, 3, kEntries / 8, SharerFormat::FullVector,
             HashKind::Skewing, 32, 1, 2, 0);
     }},
    {"Cuckoo 4w + 16-entry stash",
     []() -> std::unique_ptr<Directory> {
         return std::make_unique<CuckooDirectory>(
             kCaches, 4, kEntries / 4, SharerFormat::FullVector,
             HashKind::Skewing, 32, 1, 1, 16);
     }},
};
constexpr std::size_t kVariantCount = std::size(kVariants);

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t ops = 400000;
    const HarnessOptions cli = parseHarnessOptions(
        argc, argv, kMapGridFlags,
        {countFlag("ops", ops, 1,
                   "churn operations per cell (default 400000)")});
    const SweepRunner runner(cli.sweep());

    // One cell per (variant, occupancy); both tables read the same run.
    const auto outcomes = runner.map<Outcome>(
        kVariantCount * kOccPoints, [ops](std::size_t i) {
            auto dir = kVariants[i / kOccPoints].make();
            return churn(*dir, kOccupancies[i % kOccPoints], ops, 77);
        });

    std::vector<std::string> columns{"organization"};
    for (double occ : kOccupancies) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%.0f%%", occ * 100.0);
        columns.push_back(buf);
    }

    Reporter report(cli.format);
    const struct
    {
        const char *title;
        bool attempts;
    } tables[] = {
        {"Extension ablation: forced-invalidation rate vs occupancy "
         "(occupancy-normalized)",
         false},
        {"Average insertion attempts at the same points", true},
    };
    for (const auto &spec : tables) {
        ReportTable table(spec.title, columns);
        for (std::size_t v = 0; v < kVariantCount; ++v) {
            std::vector<ReportCell> row{cellText(kVariants[v].label)};
            for (std::size_t o = 0; o < kOccPoints; ++o) {
                const Outcome &out = outcomes[v * kOccPoints + o];
                row.push_back(spec.attempts ? cellNum(out.attempts)
                                            : cellPct(out.invalRate));
            }
            table.addRow(std::move(row));
        }
        report.table(table);
    }

    report.note("Paper (§6): Elbow's single displacement lands between "
                "plain skewed and Cuckoo; buckets help 3-ary at high "
                "occupancy; the stash only matters where the paper "
                "would simply (and harmlessly) invalidate.");
    return 0;
}
