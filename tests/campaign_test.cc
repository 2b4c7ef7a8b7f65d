/**
 * @file
 * Campaign-layer coverage (sim/campaign.hh):
 *
 *  - ExperimentResult JSON round-trips *exactly* (write-parse-write is
 *    a fixed point), including interval telemetry and cost-model
 *    latency histograms — the property the byte-identical merge rests
 *    on;
 *  - manifests round-trip (every sharer-format, hash and config-kind
 *    enumerator included), cell ids are content hashes (any knob edit
 *    changes the id, and a manifest still carrying the removed
 *    "shards" option is rejected), the cell list is SweepRunner::cells
 *    in runMany order, and the grid's ids and document digests are
 *    pinned;
 *  - both runners (SweepRunner::runCells and runCampaignCells) report
 *    a trace cell exhausted during warmup;
 *  - every parse error names a line:column; deep nesting and hostile
 *    histogram geometry are refused without allocating; and seeded
 *    mutants of a manifest, a shard and a results document all parse
 *    or throw a located std::runtime_error, within an allocation bound
 *    set by their size;
 *  - merged shards render byte-identically to the single-process
 *    reference at --jobs=1 and --jobs=4, over a 2-organization grid
 *    with the mesh cost model and interval telemetry on;
 *  - resume: a completed prefix is skipped, torn .tmp files from a
 *    "killed worker" are swept, and the final document is unchanged;
 *  - kill-and-resume through the real campaign_tool binary (fork/exec
 *    + SIGKILL), skipped where the tool is not built (CDIR_BUILD_BENCH
 *    =OFF, e.g. the ASan job).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/alloc_counter.hh"
#include "common/fnv1a.hh"
#include "sim/campaign.hh"
#include "workload/trace.hh"

namespace cdir {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory under the system temp root. */
std::string
scratchDir(const std::string &tag)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("cdir_campaign_" + std::to_string(::getpid()) +
                          "_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * The acceptance grid: 2 organizations x 2 workloads, timed under the
 * mesh cost model with interval telemetry on — small enough to run
 * many times, wide enough that every serialized field is non-trivial.
 */
SweepSpec
campaignGrid()
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

    ExperimentOptions opts;
    opts.warmupAccesses = 8000;
    opts.measureAccesses = 8000;
    opts.occupancySampleEvery = 1000;
    opts.intervalAccesses = 2000;
    opts.costModel = "mesh";
    spec.options("mesh", opts);
    return spec;
}

CampaignManifest
gridManifest()
{
    const SweepSpec specs[] = {campaignGrid()};
    return buildCampaignManifest(specs, SweepRunner(SweepOptions{1, ""}),
                                 "campaign_test");
}

/** The single-process reference document for @p manifest. */
std::string
referenceJson(const CampaignManifest &manifest, unsigned jobs = 1)
{
    const SweepRunner runner(SweepOptions{jobs, ""});
    return campaignResultsToJson(
        manifest, runner.runCells(manifest.cells, manifest.specCount));
}

// --- result serialization ----------------------------------------------------

TEST(CampaignResultJson, WriteParseWriteIsAFixedPoint)
{
    const CampaignManifest manifest = gridManifest();
    ASSERT_FALSE(manifest.cells.empty());
    // Timed + interval-telemetry cell: every optional section present.
    const SweepCell &cell = manifest.cells.front();
    const ExperimentResult result =
        runExperiment(cell.config, cell.workload, cell.options);
    EXPECT_FALSE(result.intervals.windows.empty());
    EXPECT_GT(result.latencyP50, 0u);

    const std::string once = experimentResultToJson(result);
    const ExperimentResult reparsed = parseExperimentResult(once);
    EXPECT_EQ(experimentResultToJson(reparsed), once);
    // Spot-check a few reconstructed fields for equality, not just
    // serialization stability.
    EXPECT_EQ(reparsed.workload, result.workload);
    EXPECT_EQ(reparsed.organization, result.organization);
    EXPECT_EQ(reparsed.avgOccupancy, result.avgOccupancy);
    EXPECT_EQ(reparsed.directory.lookups, result.directory.lookups);
    EXPECT_EQ(reparsed.system.latency.count(),
              result.system.latency.count());
    EXPECT_EQ(reparsed.intervals.windows.size(),
              result.intervals.windows.size());
    EXPECT_EQ(reparsed.latencyP999, result.latencyP999);
    // Footprint accounting: the deterministic estimate checkpoints;
    // the environmental fields (peak RSS, wall-clock) deliberately do
    // not — a loaded cell reports 0 for them.
    EXPECT_GT(result.estimatedBytes, 0u);
    EXPECT_EQ(reparsed.estimatedBytes, result.estimatedBytes);
    EXPECT_GT(result.peakRssBytes, 0u);
    EXPECT_EQ(reparsed.peakRssBytes, 0u);
    EXPECT_EQ(reparsed.wallSeconds, 0.0);
}

TEST(CampaignResultJson, PreFootprintShardsStillParse)
{
    // Shards written before estimated_bytes existed lack the key; the
    // parser must treat it as optional instead of rejecting the file.
    const SweepSpec spec = campaignGrid();
    ExperimentOptions opts;
    opts.warmupAccesses = 2000;
    opts.measureAccesses = 2000;
    const ExperimentResult result =
        runExperiment(spec.configs()[0].config,
                      spec.workloads()[0].workload, opts);
    std::string json = experimentResultToJson(result);
    const std::string key = ", \"estimated_bytes\": ";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = json.find_first_of(",}", at + key.size());
    json.erase(at, end - at);
    const ExperimentResult reparsed = parseExperimentResult(json);
    EXPECT_EQ(reparsed.estimatedBytes, 0u);
    EXPECT_EQ(reparsed.directory.lookups, result.directory.lookups);
}

TEST(CampaignResultJson, UntimedResultRoundTripsToo)
{
    const SweepSpec spec = campaignGrid();
    ExperimentOptions opts;
    opts.warmupAccesses = 4000;
    opts.measureAccesses = 4000;
    const ExperimentResult result =
        runExperiment(spec.configs()[0].config,
                      spec.workloads()[0].workload, opts);
    const std::string once = experimentResultToJson(result);
    EXPECT_EQ(experimentResultToJson(parseExperimentResult(once)), once);
}

// --- manifests ---------------------------------------------------------------

/** The acceptance grid's cell ids, recorded before ids became derived. */
const char *const kPinnedIds[] = {"e4196308884f3d44", "0189ff4dcfe19f56",
                                  "d09cead63abb9bfe", "3ab8a4082a54feda"};

TEST(CampaignManifest, EnumeratesCellsInRunManyOrderWithStableIds)
{
    const CampaignManifest manifest = gridManifest();
    const SweepSpec spec = campaignGrid();
    ASSERT_EQ(manifest.cells.size(), spec.cellCount());
    EXPECT_EQ(manifest.specCount, 1u);
    EXPECT_EQ(manifest.tool, "campaign_test");
    // Options-major within workload within config, ids content-stable.
    EXPECT_EQ(manifest.cells[0].label(), "Cuckoo 4x64/wl7/mesh");
    EXPECT_EQ(manifest.cells[1].label(), "Cuckoo 4x64/wl21/mesh");
    EXPECT_EQ(manifest.cells[2].label(), "Sparse 8x32/wl7/mesh");
    for (std::size_t i = 0; i < manifest.cells.size(); ++i)
        EXPECT_EQ(campaignCellId(manifest.cells[i]), kPinnedIds[i]) << i;
    // Rebuilding yields the same ids (stability across processes).
    const CampaignManifest again = gridManifest();
    for (std::size_t i = 0; i < manifest.cells.size(); ++i)
        EXPECT_EQ(campaignCellId(manifest.cells[i]),
                  campaignCellId(again.cells[i]));
}

/** FNV-1a 64 of @p text (a compact pin for a whole document). */
std::uint64_t
documentDigest(const std::string &text)
{
    return fnv1a(fnv1aInit(), text);
}

TEST(CampaignManifest, DocumentsPinnedToParent)
{
    // The acceptance grid's cell ids and the digests of its manifest and
    // results documents, recorded before the cell enumeration, runner
    // and serializers were unified with the sweep engine. A byte of
    // drift in any of the three fails here.
    const CampaignManifest manifest = gridManifest();
    ASSERT_EQ(manifest.cells.size(), std::size(kPinnedIds));
    for (std::size_t i = 0; i < manifest.cells.size(); ++i)
        EXPECT_EQ(campaignCellId(manifest.cells[i]), kPinnedIds[i]) << i;
    EXPECT_EQ(documentDigest(campaignManifestToJson(manifest)),
              0x3f0ab4c36bee9805ull);
    for (const unsigned jobs : {1u, 4u})
        EXPECT_EQ(documentDigest(referenceJson(manifest, jobs)),
                  0x1fa665cddeb21744ull)
            << "jobs=" << jobs;
}

TEST(CampaignManifest, AnyKnobEditChangesTheCellId)
{
    const CampaignManifest manifest = gridManifest();
    SweepCell cell = manifest.cells.front();
    const std::string original = campaignCellId(cell);

    SweepCell edited = cell;
    edited.options.measureAccesses += 1;
    EXPECT_NE(campaignCellId(edited), original);
    edited = cell;
    edited.workload.seed += 1;
    EXPECT_NE(campaignCellId(edited), original);
    edited = cell;
    edited.config.directory.ways += 1;
    EXPECT_NE(campaignCellId(edited), original);
    edited = cell;
    edited.options.costModel = "fixed";
    EXPECT_NE(campaignCellId(edited), original);
}

TEST(CampaignManifest, FileRoundTripPreservesEveryCell)
{
    const std::string dir = scratchDir("manifest_roundtrip");
    const CampaignManifest manifest = gridManifest();
    const std::string path = dir + "/manifest.json";
    writeCampaignManifest(manifest, path);
    const CampaignManifest loaded = readCampaignManifest(path);
    ASSERT_EQ(loaded.cells.size(), manifest.cells.size());
    EXPECT_EQ(loaded.tool, manifest.tool);
    EXPECT_EQ(loaded.specCount, manifest.specCount);
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        EXPECT_EQ(campaignCellId(loaded.cells[i]),
                  campaignCellId(manifest.cells[i]));
        EXPECT_EQ(loaded.cells[i].label(), manifest.cells[i].label());
    }
    // A tampered cell id is rejected, not silently accepted.
    std::string text = slurp(path);
    const std::size_t at = text.find(campaignCellId(manifest.cells[0]));
    ASSERT_NE(at, std::string::npos);
    text[at] = text[at] == '0' ? '1' : '0';
    EXPECT_THROW(parseCampaignManifest(text), std::runtime_error);
    fs::remove_all(dir);
}

TEST(CampaignManifest, EveryEnumValueRoundTrips)
{
    // One cell per SharerFormat x HashKind x CmpConfigKind: the manifest
    // parser must accept every enumerator the writer can emit.
    SweepSpec spec;
    const auto last_kind = static_cast<unsigned>(kLastCmpConfigKind);
    const auto last_format = static_cast<unsigned>(kLastSharerFormat);
    const auto last_hash = static_cast<unsigned>(kLastHashKind);
    for (unsigned k = 0; k <= last_kind; ++k)
        for (unsigned f = 0; f <= last_format; ++f)
            for (unsigned h = 0; h <= last_hash; ++h) {
                CmpConfig cfg = CmpConfig::paperConfig(
                    static_cast<CmpConfigKind>(k), 4);
                cfg.directory.format = static_cast<SharerFormat>(f);
                cfg.directory.hash = static_cast<HashKind>(h);
                spec.config(std::to_string(k) + "-" + std::to_string(f) +
                                "-" + std::to_string(h),
                            cfg);
            }
    WorkloadParams wl;
    wl.name = "wl";
    wl.numCores = 4;
    spec.workload(wl.name, wl);
    const SweepSpec specs[] = {spec};
    const CampaignManifest manifest = buildCampaignManifest(
        specs, SweepRunner(SweepOptions{1, ""}), "campaign_test");
    ASSERT_EQ(manifest.cells.size(),
              std::size_t{last_kind + 1} * (last_format + 1) *
                  (last_hash + 1));

    const CampaignManifest loaded =
        parseCampaignManifest(campaignManifestToJson(manifest));
    ASSERT_EQ(loaded.cells.size(), manifest.cells.size());
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        const CmpConfig &want = manifest.cells[i].config;
        const CmpConfig &got = loaded.cells[i].config;
        SCOPED_TRACE(manifest.cells[i].label());
        EXPECT_EQ(got.kind, want.kind);
        EXPECT_EQ(got.directory.format, want.directory.format);
        EXPECT_EQ(got.directory.hash, want.directory.hash);
        EXPECT_EQ(campaignCellId(loaded.cells[i]),
                  campaignCellId(manifest.cells[i]));
    }
}

/** The balanced `{...}` object of member @p key, searched from @p from. */
std::string
objectAfter(const std::string &text, const std::string &key,
            std::size_t from)
{
    const std::size_t begin = text.find("\"" + key + "\": {", from);
    if (begin == std::string::npos)
        return {};
    const std::size_t open = text.find('{', begin);
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '{')
            ++depth;
        else if (text[i] == '}' && --depth == 0)
            return text.substr(open, i - open + 1);
    }
    return {};
}

/** campaignCellId's hash over already-serialized cell content. */
std::string
cellIdOf(const SweepCell &cell, const std::string &config,
         const std::string &workload, const std::string &options)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const std::string &part :
         {std::to_string(cell.specIndex), cell.label(), config, workload,
          options}) {
        for (const char ch : part) {
            hash ^= static_cast<unsigned char>(ch);
            hash *= 0x100000001b3ull;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

TEST(CampaignManifest, ManifestWithShardsOptionIsRejected)
{
    // ExperimentOptions once carried an intra-cell "shards" count that
    // entered every cell id. A manifest written then must fail the id
    // check rather than merge with results computed without it.
    const CampaignManifest manifest = gridManifest();
    std::string text = campaignManifestToJson(manifest);
    EXPECT_EQ(text.find("\"shards\""), std::string::npos);

    const SweepCell &cell = manifest.cells.front();
    const std::string id = campaignCellId(cell);
    const std::string id_member = "\"id\": \"" + id + "\"";
    const std::size_t at = text.find(id_member);
    ASSERT_NE(at, std::string::npos);
    const std::string config = objectAfter(text, "config", at);
    const std::string workload = objectAfter(text, "workload", at);
    const std::string options = objectAfter(text, "options", at);
    // The reconstruction reproduces today's id, so the old id below is
    // what a manifest from before the removal really carries.
    ASSERT_EQ(cellIdOf(cell, config, workload, options), id);

    std::string old_options = options;
    const std::string anchor = "\"occupancy_sample_every\": 1000";
    ASSERT_NE(old_options.find(anchor), std::string::npos);
    old_options.insert(old_options.find(anchor) + anchor.size(),
                       ", \"shards\": 1");
    const std::string old_id =
        cellIdOf(cell, config, workload, old_options);
    ASSERT_NE(old_id, id);

    text.replace(text.find(options, at), options.size(), old_options);
    text.replace(at, id_member.size(), "\"id\": \"" + old_id + "\"");
    try {
        parseCampaignManifest(text);
        FAIL() << "a manifest carrying \"shards\" was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("does not match its content"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CampaignManifest, RespectsTheRunnersFilter)
{
    const SweepSpec specs[] = {campaignGrid()};
    const CampaignManifest manifest = buildCampaignManifest(
        specs, SweepRunner(SweepOptions{1, "Cuckoo"}), "campaign_test");
    ASSERT_EQ(manifest.cells.size(), 2u);
    for (const SweepCell &cell : manifest.cells)
        EXPECT_EQ(cell.configLabel, "Cuckoo 4x64");
}

// --- shards / merge ----------------------------------------------------------

TEST(CampaignShards, MissingShardReadsFalseTornShardThrows)
{
    const std::string dir = scratchDir("shard_io");
    ExperimentResult out;
    EXPECT_FALSE(readCampaignShard(dir, "00000000deadbeef", out));
    // A torn (truncated) document at the final name must throw, never
    // parse as an empty result.
    std::ofstream(campaignShardPath(dir, "00000000deadbeef"))
        << "{\"format\": \"cdir-campaign-shard\", \"ver";
    EXPECT_THROW(readCampaignShard(dir, "00000000deadbeef", out),
                 std::runtime_error);
    fs::remove_all(dir);
}

TEST(CampaignMerge, ByteIdenticalToSingleProcessAtJobs1AndJobs4)
{
    const CampaignManifest manifest = gridManifest();
    const std::string expected = referenceJson(manifest);
    // The reference itself is jobs-invariant (sweep determinism).
    EXPECT_EQ(referenceJson(manifest, 4), expected);

    for (const unsigned jobs : {1u, 4u}) {
        const std::string dir =
            scratchDir("merge_jobs" + std::to_string(jobs));
        const CampaignRunReport report = runCampaignCells(
            manifest, dir, 0, manifest.cells.size(), jobs);
        EXPECT_EQ(report.ran, manifest.cells.size());
        EXPECT_EQ(report.failed, 0u);
        const std::string merged = campaignResultsToJson(
            manifest, mergeCampaignShards(manifest, dir));
        EXPECT_EQ(merged, expected) << "jobs=" << jobs;
        fs::remove_all(dir);
    }
}

TEST(CampaignMerge, ParseResultsValidatesAgainstTheGrid)
{
    const CampaignManifest manifest = gridManifest();
    const std::string doc = referenceJson(manifest);
    // Round-trips against the matching grid...
    const auto groups = parseCampaignResults(manifest, doc);
    EXPECT_EQ(campaignResultsToJson(manifest, groups), doc);
    // ...but an edited grid (different cell ids) rejects the document.
    const SweepSpec specs[] = {campaignGrid()};
    CampaignManifest edited = buildCampaignManifest(
        specs, SweepRunner(SweepOptions{1, ""}), "campaign_test");
    edited.cells[0].options.measureAccesses += 1;
    EXPECT_THROW(parseCampaignResults(edited, doc), std::runtime_error);
    // A foreign tool name is rejected too.
    CampaignManifest renamed = manifest;
    renamed.tool = "fig12";
    EXPECT_THROW(parseCampaignResults(renamed, doc), std::runtime_error);
}

TEST(CampaignMerge, IncompleteCampaignThrowsListingMissingCells)
{
    const CampaignManifest manifest = gridManifest();
    const std::string dir = scratchDir("merge_incomplete");
    runCampaignCells(manifest, dir, 0, 1, 1);
    try {
        mergeCampaignShards(manifest, dir);
        FAIL() << "merge of an incomplete campaign must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(campaignCellId(manifest.cells[1])),
                  std::string::npos)
            << what;
    }
    fs::remove_all(dir);
}

// --- resume ------------------------------------------------------------------

TEST(CampaignResume, SkipsDoneCellsSweepsTornTmpsKeepsBytesIdentical)
{
    const CampaignManifest manifest = gridManifest();
    const std::string expected = referenceJson(manifest);
    const std::string dir = scratchDir("resume");
    const std::size_t half = manifest.cells.size() / 2;
    ASSERT_GT(half, 0u);

    // First run dies after completing a prefix; the "killed worker"
    // left a torn temporary for the cell it was computing.
    CampaignRunReport report = runCampaignCells(manifest, dir, 0, half, 1);
    EXPECT_EQ(report.ran, half);
    const std::string torn =
        campaignShardPath(dir, campaignCellId(manifest.cells[half])) +
        ".tmp.99999";
    std::ofstream(torn) << "{\"format\": \"cdir-campaign-sha";
    ASSERT_TRUE(fs::exists(torn));

    CampaignStatus status = campaignStatus(manifest, dir);
    EXPECT_EQ(status.done, half);
    EXPECT_EQ(status.missing.size(), manifest.cells.size() - half);

    // Resume over the full range: the prefix is skipped, the torn tmp
    // swept, and the merged document is byte-identical to the
    // single-process reference.
    report = runCampaignCells(manifest, dir, 0, manifest.cells.size(), 2);
    EXPECT_EQ(report.skipped, half);
    EXPECT_EQ(report.ran, manifest.cells.size() - half);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_FALSE(fs::exists(torn));
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
            << entry.path();
    EXPECT_EQ(campaignResultsToJson(manifest,
                                    mergeCampaignShards(manifest, dir)),
              expected);
    fs::remove_all(dir);
}

// --- exhausted finite workloads ----------------------------------------------

TEST(CampaignRun, ExhaustedTraceCellIsReportedOnBothPaths)
{
    // A trace that runs dry during warmup measures 0 accesses — an
    // all-zero result indistinguishable from a perfect one. Both the
    // in-process runner and the shard runner must say so on stderr.
    const std::string dir = scratchDir("exhausted");
    const std::string trace = dir + "/short.trace";
    {
        TextTraceWriter out(trace);
        for (BlockAddr addr = 0; addr < 100; ++addr)
            out.write(MemAccess{static_cast<CoreId>(addr % 4), addr,
                                false, false});
        out.close();
    }
    SweepSpec spec;
    spec.config("Cuckoo 4x64", campaignGrid().configs()[0].config);
    spec.workload("short", traceWorkloadParams(trace));
    ExperimentOptions opts;
    opts.warmupAccesses = 1000;
    opts.measureAccesses = 1000;
    spec.options("", opts);
    const SweepSpec specs[] = {spec};
    const SweepRunner runner(SweepOptions{1, ""});
    const CampaignManifest manifest =
        buildCampaignManifest(specs, runner, "campaign_test");
    ASSERT_EQ(manifest.cells.size(), 1u);
    const std::string note = "'Cuckoo 4x64/short': workload exhausted "
                             "during warmup";

    testing::internal::CaptureStderr();
    const auto groups =
        runner.runCells(manifest.cells, manifest.specCount);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(note),
              std::string::npos);
    ASSERT_EQ(groups.size(), 1u);
    ASSERT_EQ(groups[0].size(), 1u);
    EXPECT_EQ(groups[0][0].result.system.accesses, 0u);

    testing::internal::CaptureStderr();
    const CampaignRunReport report =
        runCampaignCells(manifest, dir + "/shards", 0, 1, 1);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(note),
              std::string::npos);
    EXPECT_EQ(report.ran, 1u);
    fs::remove_all(dir);
}

// --- located errors and hostile input ----------------------------------------

/** "line:column" of byte @p offset of @p text, both 1-based. */
std::string
locationOf(const std::string &text, std::size_t offset)
{
    std::size_t line = 1, line_start = 0;
    for (std::size_t i = 0; i < offset; ++i)
        if (text[i] == '\n') {
            ++line;
            line_start = i + 1;
        }
    return std::to_string(line) + ":" +
           std::to_string(offset - line_start + 1);
}

/** The message @p parse throws, or "" if it returns. */
std::string
errorOf(const std::function<void()> &parse)
{
    try {
        parse();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** @p text with the first @p from replaced by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

TEST(CampaignJson, ErrorsNameLineAndColumn)
{
    const CampaignManifest manifest = gridManifest();
    const std::string text = campaignManifestToJson(manifest);
    const auto manifestError = [](const std::string &doc) {
        return errorOf([&] { parseCampaignManifest(doc); });
    };

    // A wrong type, a range error and a signed integer name the value.
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"ways\": 4", "\"ways\": \"4\""},
             {"\"cache_assoc\": 2", "\"cache_assoc\": 4294967296"},
             {"\"seed\": 7", "\"seed\": -7"},
             {"\"kind\": 0", "\"kind\": 9"},
         }) {
        const std::string doc = replaced(text, from, to);
        const std::size_t value = doc.find(to) + to.find(": ") + 2;
        EXPECT_NE(manifestError(doc).find("campaign JSON " +
                                          locationOf(doc, value) + ": "),
                  std::string::npos)
            << to << ": " << manifestError(doc);
    }

    // A missing key names its enclosing object. probe_every is required:
    // a manifest without it would fail the cell id check anyway.
    const std::string probe = ", \"probe_every\": 0";
    const std::string no_probe = replaced(text, probe, "");
    const std::size_t options = no_probe.find("\"options\": {") + 11;
    EXPECT_NE(manifestError(no_probe).find(
                  "campaign JSON " + locationOf(no_probe, options) +
                  ": missing \"probe_every\""),
              std::string::npos)
        << manifestError(no_probe);

    // A syntax error names where parsing stopped.
    const std::string torn = text.substr(0, text.size() / 2);
    EXPECT_NE(manifestError(torn).find("campaign JSON "), std::string::npos);
    const std::string junk = replaced(text, "\"tool\": ", "\"tool\" ");
    EXPECT_NE(manifestError(junk).find(
                  "campaign JSON " +
                  locationOf(junk, junk.find("\"tool\" ") + 7) +
                  ": expected ':'"),
              std::string::npos)
        << manifestError(junk);
}

TEST(CampaignJson, DeepNestingIsALocatedErrorNotACrash)
{
    // Two million '[' once recursed the parser off the end of the stack.
    const std::string nested(2'000'000, '[');
    resetLargestAllocation();
    const std::string what =
        errorOf([&] { parseCampaignManifest(nested); });
    EXPECT_NE(what.find("campaign JSON 1:65: nesting deeper than 64"),
              std::string::npos)
        << what;
    EXPECT_LT(largestAllocation(), std::size_t{1} << 20);
    // The deepest document written (10 levels) is far inside the cap.
    const std::string deep = std::string(64, '[') + std::string(64, ']');
    EXPECT_NE(errorOf([&] { parseCampaignManifest(deep); })
                  .find("1:1: expected an object"),
              std::string::npos);
}

TEST(CampaignJson, HostileHistogramsAreRejectedWithoutAllocating)
{
    const CampaignManifest manifest = gridManifest();
    const std::string doc = referenceJson(manifest);
    const auto resultsError = [&](const std::string &text) {
        return errorOf([&] { parseCampaignResults(manifest, text); });
    };

    // An oversized "max" once sized a 2.4 GB bucket array.
    const std::string huge =
        replaced(doc, "\"max\": 32", "\"max\": 300000000");
    resetLargestAllocation();
    std::string what = resultsError(huge);
    EXPECT_LT(largestAllocation(), std::size_t{1} << 20);
    EXPECT_NE(what.find("campaign JSON " +
                        locationOf(huge, huge.find("300000000")) +
                        ": histogram max 300000000 is not 32"),
              std::string::npos)
        << what;
    EXPECT_NE(resultsError(replaced(doc, "\"max\": 32", "\"max\": 31"))
                  .find("histogram max 31 is not 32"),
              std::string::npos);

    // Bucket indices beyond either histogram's range are located
    // errors (a latency index once escaped as std::invalid_argument).
    const std::string attempt = "\"attempt_histogram\": {\"max\": 32, "
                                "\"buckets\": [[";
    what = resultsError(replaced(doc, attempt, attempt + "33"));
    EXPECT_NE(what.find("bucket 331 out of range (histogram has 33 "),
              std::string::npos)
        << what;
    const std::string latency = "\"buckets\": [[";
    const std::size_t at =
        doc.find(latency, doc.find("\"latency\": {\"sum\"")) +
        latency.size();
    std::string bad = doc;
    bad.insert(at, "99999");
    what = resultsError(bad);
    EXPECT_NE(what.find("campaign JSON " +
                        locationOf(bad, at - latency.size() + 11) +
                        ": bucket 99999"),
              std::string::npos)
        << what;
}

/**
 * Seeded mutation fuzzing over every campaign grammar: the grid's
 * manifest, one shard and the results document, each put through
 * byte flips, insertions, deletions, truncations and span duplications.
 * Every mutant must parse or throw std::runtime_error naming a
 * line:column — any other exception fails the test, a crash or hang
 * kills it — and no single allocation may outgrow a bound set by the
 * mutant's size.
 */
TEST(CampaignFuzz, MutantsParseOrThrowALocatedError)
{
    constexpr int kMutantsPerKind = 1000;
    const CampaignManifest manifest = gridManifest();
    const std::string results = referenceJson(manifest);
    const std::string dir = scratchDir("fuzz");
    const std::string cell = campaignCellId(manifest.cells[0]);
    writeCampaignShard(dir, cell,
                       parseCampaignResults(manifest, results)[0][0].result);
    const std::string shard_path = campaignShardPath(dir, cell);

    struct Grammar
    {
        const char *name;
        std::string text;
        std::function<void(const std::string &)> parse;
    };
    const Grammar grammars[] = {
        {"manifest", campaignManifestToJson(manifest),
         [](const std::string &t) { parseCampaignManifest(t); }},
        {"shard", slurp(shard_path),
         [&](const std::string &t) {
             std::ofstream(shard_path, std::ios::binary) << t;
             ExperimentResult out;
             readCampaignShard(dir, cell, out);
         }},
        {"results", results,
         [&](const std::string &t) { parseCampaignResults(manifest, t); }},
    };

    enum Kind { Flip, Insert, Delete, Truncate, Duplicate, kKinds };
    const std::regex located("campaign JSON [0-9]+:[0-9]+: ");
    const std::string alphabet = "{}[]\",:-+.eE0123456789 \n\\tu";
    std::mt19937_64 rng(20111012);
    const auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::size_t parsed = 0, rejected = 0;
    for (const Grammar &g : grammars) {
        for (int kind = 0; kind < kKinds; ++kind) {
            for (int n = 0; n < kMutantsPerKind; ++n) {
                std::string t = g.text;
                const std::size_t at = below(t.size());
                switch (kind) {
                  case Flip:
                    t[at] = static_cast<char>(t[at] ^ (1 + below(255)));
                    break;
                  case Insert:
                    t.insert(at, 1,
                             below(2) ? alphabet[below(alphabet.size())]
                                      : static_cast<char>(below(256)));
                    break;
                  case Delete:
                    t.erase(at, 1 + below(8));
                    break;
                  case Truncate:
                    t.resize(at);
                    break;
                  case Duplicate:
                    t.insert(below(t.size()),
                             t.substr(at, 1 + below(g.text.size() / 4)));
                    break;
                }
                resetLargestAllocation();
                try {
                    g.parse(t);
                    ++parsed;
                } catch (const std::runtime_error &e) {
                    ++rejected;
                    ASSERT_TRUE(std::regex_search(e.what(), located))
                        << g.name << " mutant " << kind << "/" << n
                        << ": " << e.what();
                }
                ASSERT_LE(largestAllocation(), (1u << 16) + 256 * t.size())
                    << g.name << " mutant " << kind << "/" << n;
            }
        }
    }
    // Both outcomes are exercised: the suite is not vacuous.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, parsed);
    fs::remove_all(dir);
}

// --- kill-and-resume through the real tool binary ----------------------------

#ifdef CDIR_CAMPAIGN_TOOL

/** exec the campaign tool; return its wait() status. */
int
runTool(const std::vector<std::string> &args, pid_t *out_pid = nullptr,
        unsigned kill_after_ms = 0)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        std::vector<char *> argv;
        static char tool[] = CDIR_CAMPAIGN_TOOL;
        argv.push_back(tool);
        std::vector<std::string> owned = args;
        for (std::string &arg : owned)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        ::execv(CDIR_CAMPAIGN_TOOL, argv.data());
        ::_exit(127);
    }
    if (out_pid != nullptr)
        *out_pid = pid;
    if (kill_after_ms != 0) {
        ::usleep(kill_after_ms * 1000);
        ::kill(pid, SIGKILL);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

TEST(CampaignTool, KillAndResumeMergesByteIdenticalToLocal)
{
    const CampaignManifest manifest = gridManifest();
    const std::string expected = referenceJson(manifest);
    const std::string dir = scratchDir("tool_kill_resume");
    const std::string manifest_path = dir + "/manifest.json";
    writeCampaignManifest(manifest, manifest_path);

    // Kill the first run mid-campaign (whenever the signal lands —
    // before, between, or inside cells, the shard directory must stay
    // consistent: complete shards plus at most stale tmps).
    const int killed = runTool({"run", "--manifest=" + manifest_path,
                                "--jobs=1"},
                               nullptr, 30);
    (void)killed; // any wait status is legitimate here

    // Resume across two forked workers, to completion.
    int status = runTool({"run", "--manifest=" + manifest_path,
                          "--jobs=1", "--workers=2"});
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    status = runTool({"status", "--manifest=" + manifest_path});
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // No torn shard and no stale temporary survives the resume.
    const std::string shard_dir = campaignShardDir(manifest_path);
    std::size_t shards = 0;
    for (const auto &entry : fs::directory_iterator(shard_dir)) {
        EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
            << entry.path();
        ++shards;
    }
    EXPECT_EQ(shards, manifest.cells.size());

    const std::string merged_path = dir + "/merged.json";
    status = runTool({"merge", "--manifest=" + manifest_path,
                      "--out=" + merged_path});
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
    EXPECT_EQ(slurp(merged_path), expected);

    // The tool's own single-process reference emits the same bytes.
    const std::string local_path = dir + "/local.json";
    status = runTool({"local", "--manifest=" + manifest_path,
                      "--jobs=2", "--out=" + local_path});
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
    EXPECT_EQ(slurp(local_path), expected);
    fs::remove_all(dir);
}

#else // !CDIR_CAMPAIGN_TOOL

TEST(CampaignTool, KillAndResumeMergesByteIdenticalToLocal)
{
    GTEST_SKIP() << "campaign_tool not built (CDIR_BUILD_BENCH=OFF)";
}

#endif

} // namespace
} // namespace cdir
