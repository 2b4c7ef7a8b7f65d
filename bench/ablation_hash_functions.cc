/**
 * @file
 * §5.5 ablation — hash function selection.
 *
 * Compares the Seznec–Bodin skewing family (trivial hardware, a few XOR
 * levels) against strong mixing functions across provisioning factors,
 * measuring average insertion attempts and insertion failures on a
 * random-tag stream with steady-state occupancy pinned by the
 * provisioning factor. The hash-kind x occupancy grid runs through the
 * sweep runner's generic map.
 *
 * Paper findings to reproduce: at 2x provisioning the strong functions
 * offer no measurable benefit; at aggressive (under-provisioned) sizes
 * they reduce attempts marginally and cut failure rates by orders of
 * magnitude — but such configurations are impractical anyway because of
 * the insertion-energy blow-up.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "directory/cuckoo_table.hh"
#include "hash/hash_family.hh"
#include "sim/sweep.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

const double kOccupancies[] = {0.25, 0.50, 0.65, 0.80, 0.90, 0.95};
constexpr std::size_t kOccPoints = std::size(kOccupancies);
const HashKind kKinds[] = {HashKind::Skewing, HashKind::Strong};

struct Outcome
{
    double avgAttempts = 0.0;
    double failureRate = 0.0;
};

/**
 * Steady-state churn at a target occupancy: keep `live = occupancy *
 * capacity` tags resident, repeatedly retiring one and inserting a
 * fresh one, as a directory slice does once caches are warm.
 */
Outcome
churn(HashKind kind, double occupancy, std::uint64_t ops,
      std::uint64_t seed)
{
    const unsigned ways = 4;
    const std::size_t sets = 2048;
    auto family = makeHashFamily(kind, ways, sets, seed);
    CuckooTable<char> table(*family, 32);
    Rng rng(seed ^ 0xabcdef);

    std::vector<Tag> live;
    const auto target = static_cast<std::size_t>(
        occupancy * double(table.capacity()));
    RunningMean attempts;
    std::uint64_t failures = 0, inserts = 0;

    for (std::uint64_t op = 0; op < ops; ++op) {
        if (live.size() >= target) {
            const std::size_t k = rng.below(live.size());
            table.erase(live[k]);
            live[k] = live.back();
            live.pop_back();
        }
        const Tag tag = rng.next();
        if (table.find(tag))
            continue;
        auto res = table.insert(tag, 0);
        ++inserts;
        attempts.add(res.attempts);
        if (res.discarded)
            ++failures;
        else
            live.push_back(tag);
    }
    return {attempts.mean(),
            inserts == 0 ? 0.0 : double(failures) / double(inserts)};
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions cli = parseHarnessOptions(argc, argv);
    const std::uint64_t ops = flagU64(argc, argv, "ops", 300000);
    warnFlagUnused(cli,
                   {"filter", "trace", "scenario", "cost-model",
                    "probe-every"});
    const SweepRunner runner(cli.sweep());

    // One cell per (hash kind, occupancy).
    const auto outcomes = runner.map<Outcome>(
        2 * kOccPoints, [ops](std::size_t i) {
            return churn(kKinds[i / kOccPoints],
                         kOccupancies[i % kOccPoints], ops, 11);
        });

    ReportTable table(
        "Hash-function ablation (4-way Cuckoo, steady-state churn)",
        {"occupancy", "skewing attempts", "skewing failures",
         "strong attempts", "strong failures"});
    for (std::size_t o = 0; o < kOccPoints; ++o) {
        const Outcome &skew = outcomes[o];
        const Outcome &strong = outcomes[kOccPoints + o];
        table.addRow({cellNum(kOccupancies[o] * 100.0, "%.0f%%"),
                      cellNum(skew.avgAttempts),
                      cellPct(skew.failureRate),
                      cellNum(strong.avgAttempts),
                      cellPct(strong.failureRate)});
    }

    Reporter report(cli.format);
    report.table(table);
    report.note("Paper (§5.5): no benefit from strong functions at "
                "practical provisioning; large failure-rate reduction "
                "only in impractically under-provisioned tables.");
    return 0;
}
