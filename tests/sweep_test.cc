/**
 * @file
 * Sweep-engine coverage:
 *
 *  - parallelFor runs every index exactly once at any width (hardware
 *    default, clamped to the count, nested) and rethrows the first
 *    exception without running any index twice;
 *  - a grid run with --jobs 1, 2 and 8 yields *bit-identical*
 *    ExperimentResult metrics in the same cell order (the determinism
 *    contract: every cell owns its CmpSystem and workload RNG);
 *  - two concurrent runExperiment calls on the same organization name
 *    match the serial baseline (no shared mutable state behind the
 *    organization table or hash/Zipf machinery);
 *  - the comma-OR cell filter and the CSV/JSON reporters behave.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.hh"
#include "model/cost_model.hh"
#include "sim/sweep.hh"

namespace cdir {
namespace {

// --- parallelFor -------------------------------------------------------------

/** Run parallelFor(@p jobs, @p count) and return how often each index ran. */
std::vector<int>
hitsOf(unsigned jobs, std::size_t count)
{
    std::vector<std::atomic<int>> hits(count);
    parallelFor(jobs, count, [&](std::size_t i) { ++hits[i]; });
    return std::vector<int>(hits.begin(), hits.end());
}

TEST(ParallelFor, CoversEveryIndexAtAnyWidth)
{
    // 0 = one thread per hardware thread; more jobs than indices are
    // clamped to the count; 0 and 1 indices run inline.
    for (const unsigned jobs : {0u, 1u, 3u, 8u, 64u}) {
        for (const std::size_t count :
             {std::size_t{0}, std::size_t{1}, std::size_t{5},
              std::size_t{257}}) {
            const std::vector<int> hits = hitsOf(jobs, count);
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(hits[i], 1) << "jobs " << jobs << " count "
                                      << count << " index " << i;
        }
    }
}

TEST(ParallelFor, MoreJobsThanIndicesRunsEveryIndexAtOnce)
{
    // 32 jobs over 3 indices: one thread per index, all three running
    // at the same time, none of them the caller.
    constexpr std::size_t kCount = 3;
    std::mutex mutex;
    std::condition_variable allIn;
    std::size_t arrived = 0;
    bool together = true;
    std::set<std::thread::id> threads;
    parallelFor(32, kCount, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
        if (++arrived == kCount)
            allIn.notify_all();
        together &= allIn.wait_for(lock, std::chrono::seconds(30),
                                   [&] { return arrived == kCount; });
    });
    EXPECT_TRUE(together);
    EXPECT_EQ(threads.size(), kCount);
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

TEST(ParallelFor, NestedCallsRunEveryInnerIndexOnce)
{
    // The shape of fig11_worstcase_distribution: an outer map whose
    // cells each run an inner grid.
    constexpr std::size_t kOuter = 3, kInner = 41;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    parallelFor(2, kOuter, [&](std::size_t o) {
        parallelFor(3, kInner,
                    [&](std::size_t i) { ++hits[o * kInner + i]; });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, PropagatesFirstException)
{
    for (const unsigned jobs : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(64);
        try {
            parallelFor(jobs, hits.size(), [&](std::size_t i) {
                ++hits[i];
                if (i == 13)
                    throw std::runtime_error("boom 13");
            });
            ADD_FAILURE() << "jobs " << jobs << ": nothing thrown";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 13");
        }
        EXPECT_EQ(hits[13].load(), 1) << "jobs " << jobs;
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_LE(hits[i].load(), 1) << "jobs " << jobs << " index " << i;
        if (jobs == 1) {
            // Inline: the loop stops at the throw.
            for (std::size_t i = 14; i < hits.size(); ++i)
                ASSERT_EQ(hits[i].load(), 0) << "index " << i;
        }
    }
}

// --- sweep determinism -------------------------------------------------------

/** Small but non-trivial grid: 2 organizations x 2 workloads x 2
 *  run lengths on a 4-core system. */
SweepSpec
smallGrid()
{
    SweepSpec spec;
    CmpConfig base = CmpConfig::paperConfig(CmpConfigKind::SharedL2, 4);
    base.privateCache = CacheConfig{64, 2};

    CmpConfig cuckoo = base;
    cuckoo.directory = cuckooSliceParams(4, 64);
    spec.config("Cuckoo 4x64", cuckoo);
    CmpConfig sparse = base;
    sparse.directory = sparseSliceParams(8, 32);
    spec.config("Sparse 8x32", sparse);

    for (const std::uint64_t seed : {7u, 21u}) {
        WorkloadParams wl;
        wl.name = "wl" + std::to_string(seed);
        wl.numCores = 4;
        wl.seed = seed;
        wl.codeBlocks = 128;
        wl.sharedBlocks = 512;
        wl.privateBlocksPerCore = 256;
        spec.workload(wl.name, wl);
    }

    for (const std::uint64_t accesses : {20000u, 40000u}) {
        ExperimentOptions opts;
        opts.warmupAccesses = accesses;
        opts.measureAccesses = accesses;
        opts.occupancySampleEvery = 1000;
        spec.options(std::to_string(accesses), opts);
    }
    return spec;
}

void
expectIdentical(const SweepRecord &a, const SweepRecord &b)
{
    EXPECT_EQ(a.configLabel, b.configLabel);
    EXPECT_EQ(a.workloadLabel, b.workloadLabel);
    EXPECT_EQ(a.optionsLabel, b.optionsLabel);
    // Bit-identical metrics: exact floating-point equality on purpose.
    EXPECT_EQ(a.result.avgInsertionAttempts,
              b.result.avgInsertionAttempts);
    EXPECT_EQ(a.result.forcedInvalidationRate,
              b.result.forcedInvalidationRate);
    EXPECT_EQ(a.result.avgOccupancy, b.result.avgOccupancy);
    EXPECT_EQ(a.result.directoryCapacity, b.result.directoryCapacity);
    EXPECT_EQ(a.result.directory.lookups, b.result.directory.lookups);
    EXPECT_EQ(a.result.directory.insertions,
              b.result.directory.insertions);
    EXPECT_EQ(a.result.directory.forcedEvictions,
              b.result.directory.forcedEvictions);
    EXPECT_EQ(a.result.system.cacheMisses, b.result.system.cacheMisses);
    EXPECT_EQ(a.result.system.sharingInvalidations,
              b.result.system.sharingInvalidations);
    for (std::size_t i = 1; i <= 32; ++i)
        EXPECT_EQ(a.result.attemptHistogram.at(i),
                  b.result.attemptHistogram.at(i))
            << "attempt bucket " << i;
}

TEST(SweepDeterminism, SerialAndParallelJobsBitIdentical)
{
    const SweepSpec spec = smallGrid();
    const auto serial = SweepRunner(SweepOptions{1, ""}).run(spec);
    ASSERT_EQ(serial.size(), spec.cellCount());
    for (const unsigned jobs : {2u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const auto parallel = SweepRunner(SweepOptions{jobs, ""}).run(spec);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectIdentical(serial[i], parallel[i]);
    }
    // The grid must actually have done directory work.
    std::uint64_t inserts = 0;
    for (const auto &rec : serial)
        inserts += rec.result.directory.insertions;
    EXPECT_GT(inserts, 0u);
}

TEST(SweepDeterminism, NestedMapAroundRunMatchesSerial)
{
    // fig11_worstcase_distribution's shape: an outer map over specs
    // whose cells each run a whole grid on an inner runner.
    const SweepSpec specs[] = {smallGrid(), smallGrid()};
    const auto serial = SweepRunner(SweepOptions{1, ""}).run(specs[0]);
    const SweepRunner outer(SweepOptions{2, ""});
    const SweepRunner inner(SweepOptions{2, ""});
    const auto nested = outer.map<std::vector<SweepRecord>>(
        2, [&](std::size_t i) { return inner.run(specs[i]); });
    ASSERT_EQ(nested.size(), 2u);
    for (const auto &records : nested) {
        ASSERT_EQ(records.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectIdentical(records[i], serial[i]);
    }
}

TEST(SweepRunMany, FlattensSpecsIntoOnePoolWithPerSpecResults)
{
    // Two distinct grids run as one flattened cell pool; each spec's
    // records must be exactly what run(spec) alone produces.
    SweepSpec first = smallGrid();
    SweepSpec second;
    CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2, 4);
    cfg.privateCache = CacheConfig{64, 2};
    cfg.directory = cuckooSliceParams(4, 32);
    second.config("Cuckoo 4x32", cfg);
    WorkloadParams wl;
    wl.name = "wl5";
    wl.numCores = 4;
    wl.seed = 5;
    wl.codeBlocks = 64;
    wl.sharedBlocks = 256;
    wl.privateBlocksPerCore = 128;
    second.workload(wl.name, wl);
    ExperimentOptions opts;
    opts.warmupAccesses = 10000;
    opts.measureAccesses = 10000;
    opts.occupancySampleEvery = 1000;
    second.options("10000", opts);

    const SweepRunner runner(SweepOptions{4, ""});
    const SweepSpec specs[] = {first, second};
    const auto grouped = runner.runMany(specs);
    ASSERT_EQ(grouped.size(), 2u);
    const auto alone_first = SweepRunner(SweepOptions{1, ""}).run(first);
    const auto alone_second =
        SweepRunner(SweepOptions{1, ""}).run(second);
    ASSERT_EQ(grouped[0].size(), alone_first.size());
    ASSERT_EQ(grouped[1].size(), alone_second.size());
    for (std::size_t i = 0; i < alone_first.size(); ++i)
        expectIdentical(grouped[0][i], alone_first[i]);
    for (std::size_t i = 0; i < alone_second.size(); ++i)
        expectIdentical(grouped[1][i], alone_second[i]);
}

TEST(SweepDeterminism, ConcurrentSameOrganizationMatchesSerial)
{
    // Two threads run the *same* organization name simultaneously; if
    // any state were shared behind the organization table, hash
    // families, or workload samplers, results would diverge from the
    // serial run.
    CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2, 4);
    cfg.privateCache = CacheConfig{64, 2};
    cfg.directory = cuckooSliceParams(4, 64);
    WorkloadParams wl;
    wl.numCores = 4;
    wl.seed = 99;
    wl.codeBlocks = 128;
    wl.sharedBlocks = 512;
    wl.privateBlocksPerCore = 256;
    ExperimentOptions opts;
    opts.warmupAccesses = 30000;
    opts.measureAccesses = 30000;

    const ExperimentResult baseline = runExperiment(cfg, wl, opts);
    ExperimentResult concurrent[2];
    {
        std::thread a(
            [&] { concurrent[0] = runExperiment(cfg, wl, opts); });
        std::thread b(
            [&] { concurrent[1] = runExperiment(cfg, wl, opts); });
        a.join();
        b.join();
    }
    for (const ExperimentResult &res : concurrent) {
        EXPECT_EQ(res.directory.lookups, baseline.directory.lookups);
        EXPECT_EQ(res.directory.insertions,
                  baseline.directory.insertions);
        EXPECT_EQ(res.directory.forcedEvictions,
                  baseline.directory.forcedEvictions);
        EXPECT_EQ(res.avgInsertionAttempts,
                  baseline.avgInsertionAttempts);
        EXPECT_EQ(res.avgOccupancy, baseline.avgOccupancy);
        EXPECT_EQ(res.system.cacheMisses, baseline.system.cacheMisses);
    }
}

// --- filter ------------------------------------------------------------------

TEST(SweepFilter, CommaSeparatedSubstringsMatchAny)
{
    SweepRunner runner(SweepOptions{1, "Cuckoo,wl21"});
    EXPECT_TRUE(runner.matchesFilter("Cuckoo 4x64/wl7/20000"));
    EXPECT_TRUE(runner.matchesFilter("Sparse 8x32/wl21/20000"));
    EXPECT_FALSE(runner.matchesFilter("Sparse 8x32/wl7/20000"));
    EXPECT_TRUE(SweepRunner(SweepOptions{1, ""})
                    .matchesFilter("anything at all"));
}

TEST(SweepFilter, RunOnlyExecutesMatchingCells)
{
    SweepSpec spec = smallGrid();
    const auto records =
        SweepRunner(SweepOptions{2, "Cuckoo"}).run(spec);
    ASSERT_EQ(records.size(), spec.cellCount() / 2);
    for (const auto &rec : records) {
        EXPECT_EQ(rec.configLabel, "Cuckoo 4x64");
        EXPECT_GT(rec.result.directory.lookups, 0u);
    }
}

// --- reporters ---------------------------------------------------------------

/** Capture Reporter output through a temporary FILE. */
std::string
emitted(ReportFormat format, const ReportTable &table)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    {
        Reporter reporter(format, f);
        reporter.table(table);
    }
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::string out(static_cast<std::size_t>(size), '\0');
    EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
    return out;
}

ReportTable
sampleTable()
{
    ReportTable table("sample", {"name", "value", "rate"});
    table.addRow(
        {cellText("alpha"), cellNum(1.25, "%.2f"), cellPct(0.5)});
    table.addRow({cellText("beta, quoted"), cellNum(2.0, "%.2f"),
                  cellMissing()});
    return table;
}

TEST(Reporter, CsvEmitsRawValuesAndQuotes)
{
    const std::string csv = emitted(ReportFormat::Csv, sampleTable());
    EXPECT_NE(csv.find("# sample\n"), std::string::npos);
    EXPECT_NE(csv.find("name,value,rate\n"), std::string::npos);
    EXPECT_NE(csv.find("alpha,1.25,0.5\n"), std::string::npos);
    EXPECT_NE(csv.find("\"beta, quoted\",2,-\n"), std::string::npos);
}

TEST(Reporter, JsonIsWellFormedArray)
{
    const std::string json = emitted(ReportFormat::Json, sampleTable());
    ASSERT_GE(json.size(), 3u);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']'); // trailing newline
    EXPECT_NE(json.find("\"title\": \"sample\""), std::string::npos);
    EXPECT_NE(json.find("[\"alpha\", 1.25, 0.5]"), std::string::npos);
    // An empty report is still valid JSON.
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    { Reporter reporter(ReportFormat::Json, f); }
    std::fseek(f, 0, SEEK_SET);
    char buf[8] = {};
    EXPECT_GT(std::fread(buf, 1, sizeof buf, f), 0u);
    EXPECT_EQ(std::strncmp(buf, "[]", 2), 0);
    std::fclose(f);
}

TEST(Reporter, TableAlignsColumns)
{
    const std::string text = emitted(ReportFormat::Table, sampleTable());
    EXPECT_NE(text.find("=== sample ==="), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("50.000%"), std::string::npos);
}

// --- shared CLI --------------------------------------------------------------

/** parseHarnessOptions over @p args, with "prog" as argv[0]. */
HarnessOptions
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseHarnessOptions(static_cast<int>(argv.size()), argv.data());
}

TEST(HarnessCli, ParsesEveryDeclaredSharedFlag)
{
    const HarnessOptions opts = parseArgs(
        {"--jobs=5", "--format=csv", "--filter=a,b", "--scale=3",
         "--warmup=1000", "--measure=2000", "--trace=traces",
         "--probe-every=7", "--cost-model=mesh,fixed",
         "--campaign-manifest=m.json"});
    EXPECT_EQ(opts.jobs, 5u);
    EXPECT_EQ(opts.format, ReportFormat::Csv);
    EXPECT_EQ(opts.filter, "a,b");
    EXPECT_EQ(opts.scale, 3u);
    EXPECT_EQ(opts.trace, "traces");
    EXPECT_TRUE(opts.scenario.empty());
    EXPECT_EQ(opts.probeEvery, 7u);
    EXPECT_EQ(opts.costModels,
              (std::vector<std::string>{"mesh", "fixed"}));
    EXPECT_EQ(opts.campaignManifest, "m.json");
    EXPECT_TRUE(opts.campaignResults.empty());
    const ExperimentOptions exp = opts.applyOverrides(ExperimentOptions{});
    EXPECT_EQ(exp.warmupAccesses, 1000u);
    EXPECT_EQ(exp.measureAccesses, 2000u);
    EXPECT_EQ(exp.costModel, "mesh");
    EXPECT_EQ(exp.probeEvery, 7u);

    EXPECT_EQ(parseArgs({"--scenario=migration-storm,fleet:tenants=4"})
                  .scenario,
              "migration-storm,fleet:tenants=4");
    EXPECT_EQ(parseArgs({"--cost-model=all"}).costModels, costModelNames());
    EXPECT_EQ(parseArgs({"--campaign-results=r.json"}).campaignResults,
              "r.json");

    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(parseArgs({"--campaign-manifest=m.json",
                           "--campaign-results=r.json"}),
                testing::ExitedWithCode(2), "mutually exclusive");
}

TEST(HarnessCli, ParsesDeclaredKnobsAndRejectsOthers)
{
    std::uint64_t ops = 0;
    const char *argv[] = {"prog",          "--jobs=5",
                          "--format=json", "--filter=a,b",
                          "--scale=3",     "--warmup=1000",
                          "--measure=2000", "--ops=42"};
    const HarnessOptions opts = parseHarnessOptions(
        static_cast<int>(std::size(argv)), const_cast<char **>(argv),
        kRunGridFlags, {countFlag("ops", ops, 1, "operations")});
    EXPECT_EQ(opts.jobs, 5u);
    EXPECT_EQ(opts.format, ReportFormat::Json);
    EXPECT_EQ(opts.filter, "a,b");
    EXPECT_EQ(opts.scale, 3u);
    EXPECT_EQ(ops, 42u);
    ExperimentOptions exp;
    exp = opts.applyOverrides(exp);
    EXPECT_EQ(exp.warmupAccesses, 1000u);
    EXPECT_EQ(exp.measureAccesses, 2000u);

    // An undeclared knob, a shared flag outside the declared set, a bad
    // value and a positional each exit 2 with a located message.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(parseArgs({"--jobs=2", "--ops=42"}),
                testing::ExitedWithCode(2), "prog: unknown flag '--ops'");
    const auto map_grid = [] {
        char prog[] = "fig07";
        char warmup[] = "--warmup=5";
        char *args[] = {prog, warmup};
        parseHarnessOptions(2, args, kMapGridFlags);
    };
    EXPECT_EXIT(map_grid(), testing::ExitedWithCode(2),
                "fig07: unknown flag '--warmup'");
    EXPECT_EXIT(parseArgs({"--jobs=10k"}), testing::ExitedWithCode(2),
                "bad value in '--jobs=10k'");
    EXPECT_EXIT(parseArgs({"--cost-model=mesh,warp"}),
                testing::ExitedWithCode(2), "bad value in '--cost-model");
    EXPECT_EXIT(parseArgs({"--format=xml"}), testing::ExitedWithCode(2),
                "bad value in '--format=xml'");
    EXPECT_EXIT(parseArgs({"--trace="}), testing::ExitedWithCode(2),
                "bad value in '--trace='");
    EXPECT_EXIT(parseArgs({"positional"}), testing::ExitedWithCode(2),
                "unexpected argument 'positional'");
    EXPECT_EXIT(parseArgs({"--trace=t", "--scenario=all"}),
                testing::ExitedWithCode(2), "mutually exclusive");
}

TEST(HarnessCli, OneNameCostModelRejectsListsAndAll)
{
    // fig11, directory_comparison and ext_phase_dynamics time each cell
    // under one model, so they declare the one-name flag: a list or
    // "all" exits 2 instead of silently running its first model.
    std::string model;
    const auto parse = [&](const char *value) {
        std::string arg = std::string("--cost-model=") + value;
        char prog[] = "fig11";
        char *args[] = {prog, arg.data()};
        parseHarnessOptions(2, args, kRunGridFlags,
                            {costModelFlag(model)});
    };
    parse("mesh");
    EXPECT_EQ(model, "mesh");
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(parse("fixed,mesh"), testing::ExitedWithCode(2),
                "fig11: bad value in '--cost-model=fixed,mesh'");
    EXPECT_EXIT(parse("all"), testing::ExitedWithCode(2),
                "fig11: bad value in '--cost-model=all'");
}

TEST(CliFlags, ParsesTogglesChoicesAndPositionals)
{
    bool text = false;
    std::string from;
    std::uint64_t cores = 0;
    const CliFlags cli{
        "tool",
        "<in> <out> [flags]",
        {toggleFlag("text", text, "write text"),
         choiceFlag<std::string>("from", from,
                                 {{"native", "n"}, {"champsim", "c"}},
                                 "dialect"),
         countFlag("cores", cores, 1, "cores")}};
    std::string storage[] = {"convert", "in", "--text", "--from=champsim",
                             "out", "--cores=4"};
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    EXPECT_EQ(cli.parse(static_cast<int>(argv.size()), argv.data(), 2),
              (std::vector<std::string>{"in", "out"}));
    EXPECT_TRUE(text);
    EXPECT_EQ(from, "c");
    EXPECT_EQ(cores, 4u);
    EXPECT_EQ(cli.count("17"), 17u);

    const std::string usage = cli.usage();
    EXPECT_NE(usage.find("usage: tool <in> <out> [flags]\n"),
              std::string::npos);
    EXPECT_NE(usage.find("  --text "), std::string::npos);
    EXPECT_NE(usage.find("  --from=native|champsim "), std::string::npos);
    EXPECT_NE(usage.find("  --cores=N "), std::string::npos);

    const auto parse = [&](std::vector<std::string> args) {
        args.insert(args.begin(), "convert");
        std::vector<char *> ptrs;
        for (std::string &arg : args)
            ptrs.push_back(arg.data());
        cli.parse(static_cast<int>(ptrs.size()), ptrs.data(), 2);
    };
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(parse({"--text=1"}), testing::ExitedWithCode(2),
                "tool: bad value in '--text=1'");
    EXPECT_EXIT(parse({"--cores"}), testing::ExitedWithCode(2),
                "bad value in '--cores'");
    EXPECT_EXIT(parse({"--cores=0"}), testing::ExitedWithCode(2),
                "bad value in '--cores=0'");
    EXPECT_EXIT(parse({"--from=gem5"}), testing::ExitedWithCode(2),
                "bad value in '--from=gem5'");
    EXPECT_EXIT(parse({"a", "b", "c"}), testing::ExitedWithCode(2),
                "unexpected argument 'c'");
    EXPECT_EXIT(cli.count("-5"), testing::ExitedWithCode(2),
                "bad value in '-5'");
    EXPECT_EXIT(cli.count("0", 1), testing::ExitedWithCode(2),
                "bad value in '0'");
}

TEST(HarnessCli, UnsignedFlagValuesParseWholeStringOnly)
{
    EXPECT_EQ(parseCliUnsigned("10"), std::optional<std::uint64_t>(10));
    EXPECT_EQ(parseCliUnsigned("18446744073709551615"),
              std::optional<std::uint64_t>(~std::uint64_t{0}));
    for (const char *bad : {"10k", "", "-1", "+1", " 1", "1 ", "0x10",
                            "18446744073709551616"})
        EXPECT_FALSE(parseCliUnsigned(bad).has_value())
            << "'" << bad << "'";
}

} // namespace
} // namespace cdir
