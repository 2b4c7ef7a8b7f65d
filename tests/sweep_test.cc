/**
 * @file
 * Sweep-engine coverage:
 *
 *  - ThreadPool runs every submitted task and parallelFor propagates
 *    the first exception;
 *  - a grid run with --jobs 1, 2 and 8 yields *bit-identical*
 *    ExperimentResult metrics in the same cell order (the determinism
 *    contract: every cell owns its CmpSystem and workload RNG);
 *  - two concurrent runExperiment calls on the same organization name
 *    match the serial baseline (no shared mutable state behind the
 *    registry or hash/Zipf machinery);
 *  - the comma-OR cell filter and the CSV/JSON reporters behave.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "model/cost_model.hh"
#include "sim/sweep.hh"

namespace cdir {
namespace {

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexAtAnyWidth)
{
    for (unsigned jobs : {1u, 3u, 8u}) {
        std::vector<int> hits(257, 0);
        parallelFor(jobs, hits.size(),
                    [&](std::size_t i) { hits[i]++; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "jobs " << jobs << " index " << i;
    }
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(parallelFor(4, 64,
                             [](std::size_t i) {
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
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
    // any state were shared behind the registry, hash families, or
    // workload samplers, results would diverge from the serial run.
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
