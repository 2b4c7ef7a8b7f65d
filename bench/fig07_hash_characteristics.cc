/**
 * @file
 * Fig. 7 — Cuckoo hash characteristics (§5.1).
 *
 * Inserts random values into 2/3/4/8-ary Cuckoo tables with strong hash
 * functions (the paper uses cryptographic functions to avoid selection
 * bias) and reports, as a function of occupancy:
 *   left graph  — average insertion attempts until a successful
 *                 insertion without a victim;
 *   right graph — frequency of not finding a vacant location within 32
 *                 attempts (insertion failure probability).
 *
 * The four arities form a grid run through the sweep runner's generic
 * map — each cell owns its table and RNG, so results are identical at
 * any --jobs value.
 *
 * The paper's headline properties: below 50% occupancy, 3-ary and wider
 * tables need <= ~2 attempts on average; up to ~65% occupancy they never
 * fail.
 */

#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "directory/cuckoo_table.hh"
#include "hash/hash_family.hh"
#include "sim/sweep.hh"

using namespace cdir;

namespace {

constexpr double kBucketWidth = 0.05;
constexpr std::size_t kBuckets = 20; // occupancy 0..1 in 5% buckets

const unsigned kArities[] = {2, 3, 4, 8};

struct AritySeries
{
    unsigned ways = 0;
    std::vector<RunningMean> attempts{kBuckets};
    std::vector<RunningMean> failures{kBuckets};
};

AritySeries
runArity(unsigned ways, std::uint64_t values, std::uint64_t seed)
{
    AritySeries series;
    series.ways = ways;
    // Size each table near the paper's 100,000-element experiment; the
    // curves depend only on occupancy (§5.1), which the bucketing
    // normalizes out.
    const std::size_t sets = 32768;
    auto family = makeHashFamily(HashKind::Strong, ways, sets, seed);
    CuckooTable<char> table(*family, 32);
    Rng rng(seed * 7919 + 1);

    for (std::uint64_t i = 0; i < values; ++i) {
        const Tag tag = rng.next();
        if (table.find(tag))
            continue;
        const double occ_before = table.occupancy();
        auto bucket = static_cast<std::size_t>(occ_before / kBucketWidth);
        if (bucket >= kBuckets)
            bucket = kBuckets - 1;
        auto res = table.insert(tag, 0);
        series.attempts[bucket].add(res.attempts);
        series.failures[bucket].add(res.discarded ? 1.0 : 0.0);
        if (res.discarded && table.occupancy() > 0.99)
            break; // saturated
    }
    return series;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t values = 400000;
    const HarnessOptions cli = parseHarnessOptions(
        argc, argv, kMapGridFlags,
        {countFlag("values", values, 1,
                   "values inserted per arity (default 400000)")});
    const SweepRunner runner(cli.sweep());

    const auto series = runner.map<AritySeries>(
        std::size(kArities), [values](std::size_t i) {
            return runArity(kArities[i], values, 100 + kArities[i]);
        });

    std::vector<std::string> columns{"occupancy"};
    for (const auto &s : series)
        columns.push_back(std::to_string(s.ways) + "-ary");

    Reporter report(cli.format);
    const struct
    {
        const char *title;
        bool failures;
    } tables[] = {
        {"Fig. 7 (left): average insertion attempts vs occupancy", false},
        {"Fig. 7 (right): insertion failure probability vs occupancy",
         true},
    };
    for (const auto &spec : tables) {
        ReportTable table(spec.title, columns);
        for (std::size_t b = 0; b < kBuckets; ++b) {
            std::vector<ReportCell> row{
                cellNum((b + 0.5) * kBucketWidth, "%.2f")};
            for (const auto &s : series) {
                const RunningMean &m =
                    spec.failures ? s.failures[b] : s.attempts[b];
                if (m.count() == 0)
                    row.push_back(cellMissing());
                else if (spec.failures)
                    row.push_back(cellNum(m.mean() * 100.0, "%.2f%%"));
                else
                    row.push_back(cellNum(m.mean()));
            }
            table.addRow(std::move(row));
        }
        report.table(table);
    }

    // Paper check: 3-ary and wider never fail below 65% occupancy, and
    // below 50% occupancy insert in under two attempts on average.
    ReportTable checks("Checks vs paper (§5.1)",
                       {"arity", "max failure prob <= 65% occ",
                        "max avg attempts <= 50% occ", "verdict"});
    for (const auto &s : series) {
        if (s.ways < 3)
            continue;
        double worst_fail_below_65 = 0.0;
        double worst_attempts_below_50 = 0.0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            const double occ = (b + 1.0) * kBucketWidth;
            if (occ <= 0.65)
                worst_fail_below_65 =
                    std::max(worst_fail_below_65, s.failures[b].mean());
            if (occ <= 0.50)
                worst_attempts_below_50 = std::max(
                    worst_attempts_below_50, s.attempts[b].mean());
        }
        checks.addRow({cellNum(double(s.ways), "%.0f"),
                       cellPct(worst_fail_below_65),
                       cellNum(worst_attempts_below_50),
                       cellText((worst_fail_below_65 == 0.0 &&
                                 worst_attempts_below_50 < 2.0)
                                    ? "OK"
                                    : "MISMATCH")});
    }
    report.table(checks);
    return 0;
}
