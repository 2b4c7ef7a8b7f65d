#include "sim/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "common/fnv1a.hh"
#include "common/json.hh"

namespace cdir {

// --- the field lists ---------------------------------------------------------
//
// The campaign format, rendered and parsed by the one JSON codec
// (common/json.hh). Byte-identity of merge-vs-local output rests on two
// of its properties: every counter is an integer (exact in JSON), and
// doubles print with %.17g, which strtod() round-trips to the same bit
// pattern — so parse(write(x)) == x field-for-field, and rendering the
// reloaded struct reproduces the original bytes. The lists live in
// namespace cdir, beside the types they serialize, because the codec
// finds them (and lastOf) by argument-dependent lookup.

/** Largest enumerator of each serialized enum (the reader's bound). */
constexpr CmpConfigKind lastOf(CmpConfigKind) { return kLastCmpConfigKind; }
constexpr SharerFormat lastOf(SharerFormat) { return kLastSharerFormat; }
constexpr HashKind lastOf(HashKind) { return kLastHashKind; }

template <class IO, Is<RunningMean> S>
void
fields(IO &io, S &m)
{
    std::uint64_t count = m.count();
    double sum = m.sum();
    io.field("count", count);
    io.field("sum", sum);
    if constexpr (IO::reading)
        m.restore(count, sum);
}

/** A histogram's serialized form: its non-zero (bucket, count) pairs. */
using Buckets = std::vector<std::pair<std::size_t, std::uint64_t>>;

/**
 * The "buckets" member shared by both histogram types: the writer
 * collects the non-zero counts of buckets [0, @p size) through @p at;
 * the reader rejects a bucket index outside that range.
 */
template <class IO, class At>
void
sparseBuckets(IO &io, Buckets &buckets, std::size_t size, At at)
{
    if constexpr (!IO::reading)
        for (std::size_t b = 0; b < size; ++b)
            if (at(b) != 0)
                buckets.emplace_back(b, at(b));
    io.field("buckets", buckets);
    if constexpr (IO::reading)
        for (const auto &bucket : buckets)
            if (bucket.first >= size)
                io.fail("buckets",
                        "bucket " + std::to_string(bucket.first) +
                            " out of range (histogram has " +
                            std::to_string(size) + " buckets)");
}

template <class IO, Is<Histogram> S>
void
fields(IO &io, S &h)
{
    // Only the attempt histogram is serialized, and its geometry is
    // fixed: checking it keeps a hostile "max" from sizing the buckets.
    std::size_t max = h.maxValue();
    io.field("max", max);
    if constexpr (IO::reading)
        if (max != kAttemptHistogramMax)
            io.fail("max", "histogram max " + std::to_string(max) +
                               " is not " +
                               std::to_string(kAttemptHistogramMax));
    Buckets buckets;
    sparseBuckets(io, buckets, max + 1,
                  [&](std::size_t v) { return h.at(v); });
    if constexpr (IO::reading) {
        h = Histogram(max);
        for (const auto &[v, count] : buckets)
            h.addCount(v, count);
    }
}

template <class IO, Is<LatencyHistogram> S>
void
fields(IO &io, S &h)
{
    std::uint64_t sum = h.totalCycles();
    io.field("sum", sum);
    Buckets buckets;
    sparseBuckets(io, buckets, LatencyHistogram::kBuckets,
                  [&](std::size_t b) { return h.bucketAt(b); });
    if constexpr (IO::reading)
        h.restore(sum, buckets);
}

template <class IO, Is<DirectoryStats> S>
void
fields(IO &io, S &s)
{
    io.field("lookups", s.lookups);
    io.field("hits", s.hits);
    io.field("insertions", s.insertions);
    io.field("sharer_adds", s.sharerAdds);
    io.field("write_upgrades", s.writeUpgrades);
    io.field("sharer_removals", s.sharerRemovals);
    io.field("entry_frees", s.entryFrees);
    io.field("forced_evictions", s.forcedEvictions);
    io.field("forced_block_invalidations", s.forcedBlockInvalidations);
    io.field("insert_failures", s.insertFailures);
    io.field("insertion_attempts", s.insertionAttempts);
    io.field("attempt_histogram", s.attemptHistogram);
}

template <class IO, Is<CmpStats> S>
void
fields(IO &io, S &s)
{
    io.field("accesses", s.accesses);
    io.field("cache_hits", s.cacheHits);
    io.field("cache_misses", s.cacheMisses);
    io.field("write_upgrades", s.writeUpgrades);
    io.field("cache_evictions", s.cacheEvictions);
    io.field("sharing_invalidations", s.sharingInvalidations);
    io.field("forced_invalidations", s.forcedInvalidations);
    io.field("directory_occupancy", s.directoryOccupancy);
    io.field("latency", s.latency);
}

template <class IO, Is<IntervalRecord> S>
void
fields(IO &io, S &r)
{
    io.field("accesses", r.accesses);
    io.field("cache_misses", r.cacheMisses);
    io.field("insertions", r.insertions);
    io.field("attempt_sum", r.attemptSum);
    io.field("attempt_count", r.insertionAttemptCount);
    io.field("forced_evictions", r.forcedEvictions);
    io.field("sharing_invalidations", r.sharingInvalidations);
    io.field("forced_invalidations", r.forcedInvalidations);
    io.field("occupied", r.occupiedEntries);
    io.field("capacity", r.capacityEntries);
    io.field("latency", r.latency);
}

template <class IO, Is<IntervalStats> S>
void
fields(IO &io, S &s)
{
    io.field("interval", s.intervalAccesses);
    io.field("windows", s.windows);
}

template <class IO, Is<DirectoryParams> S>
void
fields(IO &io, S &d)
{
    io.field("organization", d.organization);
    io.field("num_caches", d.numCaches);
    io.field("ways", d.ways);
    io.field("sets", d.sets);
    io.field("format", d.format);
    io.field("hash", d.hash);
    io.field("max_attempts", d.maxAttempts);
    io.field("bucket_slots", d.bucketSlots);
    io.field("stash_entries", d.stashEntries);
    io.field("hash_seed", d.hashSeed);
    io.field("tracked_cache_assoc", d.trackedCacheAssoc);
    io.field("tagless_bucket_bits", d.taglessBucketBits);
}

template <class IO, Is<CmpConfig> S>
void
fields(IO &io, S &c)
{
    io.field("kind", c.kind);
    io.field("num_cores", c.numCores);
    io.field("num_slices", c.numSlices);
    io.field("cache_sets", c.privateCache.numSets);
    io.field("cache_assoc", c.privateCache.assoc);
    io.field("batch_window", c.batchWindow);
    io.field("dir", c.directory);
}

template <class IO, Is<WorkloadParams> S>
void
fields(IO &io, S &p)
{
    io.field("name", p.name);
    io.field("num_cores", p.numCores);
    io.field("trace_path", p.tracePath);
    io.field("scenario_spec", p.scenarioSpec);
    io.field("code_blocks", p.codeBlocks);
    io.field("shared_blocks", p.sharedBlocks);
    io.field("private_blocks_per_core", p.privateBlocksPerCore);
    io.field("instruction_fraction", p.instructionFraction);
    io.field("shared_data_fraction", p.sharedDataFraction);
    io.field("write_fraction", p.writeFraction);
    io.field("code_theta", p.codeTheta);
    io.field("shared_theta", p.sharedTheta);
    io.field("private_theta", p.privateTheta);
    io.field("seed", p.seed);
}

template <class IO, Is<ExperimentOptions> S>
void
fields(IO &io, S &o)
{
    io.field("warmup", o.warmupAccesses);
    io.field("measure", o.measureAccesses);
    io.field("occupancy_sample_every", o.occupancySampleEvery);
    io.field("interval_accesses", o.intervalAccesses);
    io.field("cost_model", o.costModel);
    io.field("probe_every", o.probeEvery);
}

template <class IO, Is<ExperimentResult> S>
void
fields(IO &io, S &r)
{
    io.field("workload", r.workload);
    io.field("organization", r.organization);
    io.field("avg_insertion_attempts", r.avgInsertionAttempts);
    io.field("forced_invalidation_rate", r.forcedInvalidationRate);
    io.field("avg_occupancy", r.avgOccupancy);
    io.field("attempt_histogram", r.attemptHistogram);
    io.field("directory_capacity", r.directoryCapacity);
    io.field("directory", r.directory);
    io.field("system", r.system);
    io.field("intervals", r.intervals);
    io.field("cost_model", r.costModel);
    io.field("latency_p50", r.latencyP50);
    io.field("latency_p99", r.latencyP99);
    io.field("latency_p999", r.latencyP999);
    // estimatedBytes is deterministic for a given access history, so it
    // checkpoints safely. peakRssBytes / wallSeconds are environmental
    // (host- and concurrency-dependent) and are deliberately NOT
    // serialized: a campaign-loaded cell reports 0 for them. The keys
    // below are optional for shards written before footprint
    // accounting and the feedback subsystem existed.
    io.optional("estimated_bytes", r.estimatedBytes);
    // Feedback witness and SLO-ramp knee: deterministic functions of
    // the access history, safe to checkpoint and merge.
    io.optional("feedback_events", r.feedbackEvents);
    io.optional("feedback_digest", r.feedbackDigest);
    io.optional("ramp_final_level", r.rampFinalLevel);
    io.optional("ramp_knee_level", r.rampKneeLevel);
    io.optional("ramp_knee_metric", r.rampKneeMetric);
    io.optional("ramp_cross_metric", r.rampCrossMetric);
}

template <class IO, Is<SweepCell> S>
void
fields(IO &io, S &cell)
{
    // The id is derived from the rest of the cell: written for readers,
    // and checked against the content on the way back in.
    std::string id;
    if constexpr (!IO::reading)
        id = campaignCellId(cell);
    io.field("id", id);
    io.field("spec", cell.specIndex);
    io.field("config_index", cell.configIndex);
    io.field("workload_index", cell.workloadIndex);
    io.field("options_index", cell.optionsIndex);
    io.field("config_label", cell.configLabel);
    io.field("workload_label", cell.workloadLabel);
    io.field("options_label", cell.optionsLabel);
    io.field("config", cell.config);
    io.field("workload", cell.workload);
    io.field("options", cell.options);
    if constexpr (IO::reading)
        if (const std::string expected = campaignCellId(cell); id != expected)
            io.fail("id", "cell id '" + id + "' does not match its content "
                          "(expected " + expected +
                          ") — the manifest was edited or corrupted");
}

/** The `format` / `version` pair every campaign document opens with. */
template <class IO>
void
header(IO &io, const char *format)
{
    io.constant("format", std::string(format));
    io.constant("version", std::uint64_t{CampaignManifest::kVersion});
}

template <class IO, Is<CampaignManifest> S>
void
fields(IO &io, S &m)
{
    header(io, "cdir-campaign-manifest");
    io.field("tool", m.tool);
    io.field("spec_count", m.specCount);
    if constexpr (IO::reading)
        m.cells.resize(io.size("cells"));
    io.rows("cells", m.cells.size(), [&](auto &row, std::size_t i) {
        fields(row, m.cells[i]);
        if constexpr (IO::reading)
            if (m.cells[i].specIndex >= m.specCount)
                row.fail("spec",
                         "cell names spec " +
                             std::to_string(m.cells[i].specIndex) +
                             " but spec_count is " +
                             std::to_string(m.specCount));
    });
}

/** A shard: the header, its cell's id, and the cell's result. */
template <class IO, Is<ExperimentResult> R>
void
shardDocument(IO &io, const std::string &cell_id, R &result)
{
    header(io, "cdir-campaign-shard");
    io.constant("cell", cell_id);
    io.block("result", result);
}

/**
 * A results document: the header, the grid it belongs to, and one
 * (cell id, result(i)) row per manifest cell, in cell order.
 */
template <class IO, class ResultAt>
void
resultsDocument(IO &io, const CampaignManifest &manifest, ResultAt result)
{
    header(io, "cdir-campaign-results");
    io.constant("tool", manifest.tool);
    io.constant("spec_count", manifest.specCount);
    io.rows("cells", manifest.cells.size(),
            [&](auto &row, std::size_t i) {
                row.constant("id", campaignCellId(manifest.cells[i]));
                row.field("result", result(i));
            });
}

namespace {

/**
 * Parse campaign document @p json and read it through read(in). Located
 * errors from the codec name the document kind: "campaign JSON L:C: ...".
 */
template <class Read>
void
readDocument(const std::string &json, Read read)
{
    try {
        const JsonValue doc = parseJson(json);
        JsonIn in(doc);
        read(in);
    } catch (const JsonError &e) {
        throw std::runtime_error(std::string("campaign ") + e.what());
    }
}

/** One campaign document: the object write(out) fills, then a newline. */
template <class Write>
std::string
writeDocument(Write write)
{
    std::string doc;
    JsonOut out(doc);
    out.beginObject();
    write(out);
    out.endObject();
    return doc + "\n";
}

bool
shardExists(const std::string &shard_dir, const std::string &cell_id)
{
    std::error_code ec;
    return std::filesystem::exists(campaignShardPath(shard_dir, cell_id),
                                   ec);
}

} // namespace

// --- public API --------------------------------------------------------------

std::string
campaignCellId(const SweepCell &cell)
{
    std::uint64_t hash = fnv1a(fnv1aInit(), std::to_string(cell.specIndex));
    hash = fnv1a(hash, cell.label());
    hash = fnv1a(hash, toJson(cell.config));
    hash = fnv1a(hash, toJson(cell.workload));
    hash = fnv1a(hash, toJson(cell.options));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

CampaignManifest
buildCampaignManifest(std::span<const SweepSpec> specs,
                      const SweepRunner &runner, const std::string &tool)
{
    return {tool, specs.size(), runner.cells(specs)};
}

std::string
campaignManifestToJson(const CampaignManifest &manifest)
{
    return writeDocument([&](JsonOut &out) { fields(out, manifest); });
}

CampaignManifest
parseCampaignManifest(const std::string &json)
{
    CampaignManifest manifest;
    readDocument(json, [&](JsonIn &in) { fields(in, manifest); });
    return manifest;
}

/**
 * Crash-atomic publication: the content lands under a temporary name
 * (unique per process, so concurrent workers never collide) and is
 * moved over the final path with rename(), which POSIX guarantees is
 * atomic within a filesystem. Any observer therefore sees either no
 * file or the complete file — never a torn prefix.
 */
void
atomicWriteFile(const std::string &path, const std::string &content)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    try {
        writeDocumentFile(tmp, content);
    } catch (...) {
        std::remove(tmp.c_str());
        throw;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string err = std::strerror(errno);
        std::remove(tmp.c_str());
        throw std::runtime_error("rename " + tmp + " -> " + path +
                                 ": " + err);
    }
}

void
writeCampaignManifest(const CampaignManifest &manifest,
                      const std::string &path)
{
    atomicWriteFile(path, campaignManifestToJson(manifest));
}

CampaignManifest
readCampaignManifest(const std::string &path)
{
    try {
        return parseCampaignManifest(readDocumentFile(path));
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

std::string
campaignShardDir(const std::string &manifest_path)
{
    return manifest_path + ".shards";
}

std::string
campaignShardPath(const std::string &shard_dir,
                  const std::string &cell_id)
{
    return shard_dir + "/cell-" + cell_id + ".json";
}

void
writeCampaignShard(const std::string &shard_dir,
                   const std::string &cell_id,
                   const ExperimentResult &result)
{
    atomicWriteFile(campaignShardPath(shard_dir, cell_id),
                    writeDocument([&](JsonOut &out) {
                        shardDocument(out, cell_id, result);
                    }));
}

bool
readCampaignShard(const std::string &shard_dir,
                  const std::string &cell_id, ExperimentResult &out)
{
    if (!shardExists(shard_dir, cell_id))
        return false;
    const std::string path = campaignShardPath(shard_dir, cell_id);
    try {
        ExperimentResult result;
        readDocument(readDocumentFile(path), [&](JsonIn &in) {
            shardDocument(in, cell_id, result);
        });
        out = std::move(result);
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
    return true;
}

std::string
experimentResultToJson(const ExperimentResult &result)
{
    return toJson(result);
}

ExperimentResult
parseExperimentResult(const std::string &json)
{
    ExperimentResult result;
    readDocument(json, [&](JsonIn &in) { fields(in, result); });
    return result;
}

CampaignRunReport
runCampaignCells(const CampaignManifest &manifest,
                 const std::string &shard_dir, std::size_t begin,
                 std::size_t end, unsigned jobs)
{
    if (begin > end || end > manifest.cells.size())
        throw std::runtime_error(
            "campaign range " + std::to_string(begin) + ".." +
            std::to_string(end) + " out of bounds (manifest has " +
            std::to_string(manifest.cells.size()) + " cells)");
    std::filesystem::create_directories(shard_dir);

    CampaignRunReport report;
    std::vector<std::size_t> pending;
    std::vector<std::string> ids; //!< of the pending cells
    for (std::size_t i = begin; i < end; ++i) {
        std::string id = campaignCellId(manifest.cells[i]);
        if (shardExists(shard_dir, id)) {
            ++report.skipped;
        } else {
            pending.push_back(i);
            ids.push_back(std::move(id));
        }
    }

    // A worker killed mid-write leaves `cell-<id>.json.tmp.<pid>`
    // behind. Sweep those for *this run's pending cells only*: a cell
    // another live worker owns is not pending here (ranges are
    // disjoint), and its in-flight tmp file must survive.
    {
        std::vector<std::string> stale_prefixes;
        stale_prefixes.reserve(ids.size());
        for (const std::string &id : ids)
            stale_prefixes.push_back("cell-" + id + ".json.tmp.");
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(shard_dir, ec)) {
            const std::string name = entry.path().filename().string();
            for (const std::string &prefix : stale_prefixes) {
                if (name.size() > prefix.size() &&
                    name.compare(0, prefix.size(), prefix) == 0) {
                    std::filesystem::remove(entry.path(), ec);
                    break;
                }
            }
        }
    }

    std::vector<std::string> failures(pending.size());
    std::vector<std::uint64_t> measured(pending.size());
    parallelFor(jobs, pending.size(), [&](std::size_t p) {
        const SweepCell &cell = manifest.cells[pending[p]];
        try {
            const ExperimentResult result = runExperiment(
                cell.config, cell.workload, cell.options);
            writeCampaignShard(shard_dir, ids[p], result);
            measured[p] = result.system.accesses;
        } catch (const std::exception &e) {
            failures[p] = e.what();
        }
    });
    for (std::size_t p = 0; p < pending.size(); ++p) {
        const SweepCell &cell = manifest.cells[pending[p]];
        if (failures[p].empty()) {
            ++report.ran;
            noteExhaustedCell(cell, measured[p]);
            continue;
        }
        ++report.failed;
        std::fprintf(stderr, "campaign cell '%s' (%s) failed: %s\n",
                     cell.label().c_str(), ids[p].c_str(),
                     failures[p].c_str());
    }
    return report;
}

CampaignStatus
campaignStatus(const CampaignManifest &manifest,
               const std::string &shard_dir)
{
    CampaignStatus status;
    status.total = manifest.cells.size();
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        if (shardExists(shard_dir, campaignCellId(manifest.cells[i])))
            ++status.done;
        else
            status.missing.push_back(i);
    }
    return status;
}

std::vector<std::vector<SweepRecord>>
mergeCampaignShards(const CampaignManifest &manifest,
                    const std::string &shard_dir)
{
    const CampaignStatus status = campaignStatus(manifest, shard_dir);
    if (!status.missing.empty()) {
        std::string what = "campaign incomplete: " +
                           std::to_string(status.missing.size()) + " of " +
                           std::to_string(status.total) + " cells missing:";
        const std::size_t shown =
            std::min<std::size_t>(status.missing.size(), 8);
        for (std::size_t i = 0; i < shown; ++i) {
            const SweepCell &cell = manifest.cells[status.missing[i]];
            what += "\n  [" + std::to_string(status.missing[i]) + "] " +
                    cell.label() + " (" + campaignCellId(cell) + ")";
        }
        if (shown < status.missing.size())
            what += "\n  ... and " +
                    std::to_string(status.missing.size() - shown) + " more";
        throw std::runtime_error(what);
    }

    std::vector<std::vector<SweepRecord>> groups(manifest.specCount);
    for (const SweepCell &cell : manifest.cells) {
        const std::string id = campaignCellId(cell);
        ExperimentResult result;
        if (!readCampaignShard(shard_dir, id, result))
            throw std::runtime_error("campaign shard for cell " + id +
                                     " vanished during merge");
        groups[cell.specIndex].push_back(
            sweepRecord(cell, std::move(result)));
    }
    return groups;
}

std::vector<std::vector<SweepRecord>>
parseCampaignResults(const CampaignManifest &manifest,
                     const std::string &json)
{
    std::vector<ExperimentResult> results(manifest.cells.size());
    readDocument(json, [&](JsonIn &in) {
        resultsDocument(in, manifest,
                        [&](std::size_t i) -> ExperimentResult & {
                            return results[i];
                        });
    });
    std::vector<std::vector<SweepRecord>> groups(manifest.specCount);
    for (std::size_t i = 0; i < results.size(); ++i)
        groups[manifest.cells[i].specIndex].push_back(
            sweepRecord(manifest.cells[i], std::move(results[i])));
    return groups;
}

std::string
campaignResultsToJson(const CampaignManifest &manifest,
                      const std::vector<std::vector<SweepRecord>> &groups)
{
    // Flatten the groups back into manifest cell order. Dropped cells
    // (a failed experiment) have no record; a results document is only
    // written for complete campaigns, so refuse to serialize holes.
    std::vector<const SweepRecord *> ordered(manifest.cells.size(),
                                             nullptr);
    std::vector<std::size_t> cursor(manifest.specCount, 0);
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        const std::size_t g = manifest.cells[i].specIndex;
        if (g < groups.size() && cursor[g] < groups[g].size())
            ordered[i] = &groups[g][cursor[g]++];
        else
            throw std::runtime_error(
                "campaign results incomplete: no result for cell " +
                campaignCellId(manifest.cells[i]) + " (" +
                manifest.cells[i].label() + ")");
    }

    return writeDocument([&](JsonOut &out) {
        resultsDocument(out, manifest,
                        [&](std::size_t i) -> const ExperimentResult & {
                            return ordered[i]->result;
                        });
    });
}

std::vector<std::vector<SweepRecord>>
campaignRunMany(const HarnessOptions &cli, const SweepRunner &runner,
                std::span<const SweepSpec> specs, const std::string &tool)
{
    if (!cli.campaignManifest.empty()) {
        const CampaignManifest manifest =
            buildCampaignManifest(specs, runner, tool);
        try {
            writeCampaignManifest(manifest, cli.campaignManifest);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "campaign: %s\n", e.what());
            std::exit(2);
        }
        std::fprintf(stderr,
                     "campaign: wrote manifest '%s' (%zu cells); run "
                     "it with: campaign_tool run --manifest=%s\n",
                     cli.campaignManifest.c_str(),
                     manifest.cells.size(),
                     cli.campaignManifest.c_str());
        std::exit(0);
    }
    if (!cli.campaignResults.empty()) {
        try {
            const CampaignManifest manifest =
                buildCampaignManifest(specs, runner, tool);
            return parseCampaignResults(
                manifest, readDocumentFile(cli.campaignResults));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "campaign: %s: %s\n",
                         cli.campaignResults.c_str(), e.what());
            std::exit(2);
        }
    }
    return runner.runMany(specs);
}

} // namespace cdir
