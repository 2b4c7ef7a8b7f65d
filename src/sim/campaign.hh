/**
 * @file
 * Checkpointed multi-process sweep campaigns.
 *
 * A 4096-core x 7-organization x scenario grid is days of CPU — beyond
 * one process. This layer turns any `SweepSpec` grid into a *campaign*:
 *
 *  - **manifest**: the grid's filter-surviving cells serialize into a
 *    versioned JSON work manifest. Every cell carries a stable 64-bit
 *    id (FNV-1a over its spec index, label, and the full serialized
 *    configuration/workload/options), so editing any knob invalidates
 *    stale results instead of silently merging them.
 *  - **shards**: each completed cell lands its `ExperimentResult`
 *    (counters, interval series, latency histograms) as one JSON file
 *    `cell-<id>.json` in the manifest's shard directory. Shards are
 *    written to a temporary name and published with an atomic
 *    `rename()`, so a killed worker leaves no torn shard — shard
 *    existence implies shard completeness.
 *  - **resume**: running a cell range skips cells whose shard already
 *    exists; re-running after a kill recomputes only the missing cells.
 *  - **exact merge**: the serialization keeps every counter integral
 *    and prints doubles with %.17g (strtod round-trips that exactly),
 *    so results reloaded from shards are bit-identical to the
 *    in-memory originals and the merged results document is
 *    byte-identical to a single-process run by construction — the same
 *    merge-of-partials discipline as IntervalStats::merge and
 *    LatencyHistogram::merge.
 *
 * `tools/campaign_tool.cc` is the CLI (run / status / resume / merge /
 * local); harness grids opt in through `campaignRunMany()` and the
 * shared `--campaign-manifest=` / `--campaign-results=` flags.
 */

#ifndef CDIR_SIM_CAMPAIGN_HH
#define CDIR_SIM_CAMPAIGN_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace cdir {

/** One unit of campaign work: a fully-serialized sweep cell. */
struct CampaignCell
{
    /** Stable 16-hex-digit content id (see campaignCellId()). */
    std::string id;
    /** Which spec of the emitting harness's runMany() span. */
    std::size_t specIndex = 0;
    std::size_t configIndex = 0;
    std::size_t workloadIndex = 0;
    std::size_t optionsIndex = 0;
    std::string configLabel;
    std::string workloadLabel;
    std::string optionsLabel;
    CmpConfig config;
    WorkloadParams workload;
    ExperimentOptions options;

    /** "config/workload/options" filter label of this cell. */
    std::string label() const;
};

/** A versioned campaign work list (see file comment). */
struct CampaignManifest
{
    static constexpr int kVersion = 1;
    /** Emitting harness ("fig12", "ext_tail_latency", ...). */
    std::string tool;
    /** Specs in the emitting runMany() span (grouping key on merge). */
    std::size_t specCount = 0;
    /** Filter-surviving cells in exact runMany() cell order. */
    std::vector<CampaignCell> cells;
};

// --- cell enumeration / ids --------------------------------------------------

/**
 * Enumerate @p specs' cells exactly as SweepRunner::runMany would —
 * spec-major, then options-major within workload within config, with
 * @p runner's filter applied and the implicit default options point
 * when a spec's options axis is empty — and assign content ids.
 */
CampaignManifest buildCampaignManifest(std::span<const SweepSpec> specs,
                                       const SweepRunner &runner,
                                       const std::string &tool);

/**
 * Content id of a cell: FNV-1a 64-bit over the spec index, cell label,
 * and serialized config/workload/options, formatted as 16 hex digits.
 * Any knob change — organization, run length, cost model, trace path —
 * changes the id, so stale shards never merge silently.
 */
std::string campaignCellId(const CampaignCell &cell);

// --- manifest / shard I/O ----------------------------------------------------

/** Serialize @p manifest to its canonical JSON text. */
std::string campaignManifestToJson(const CampaignManifest &manifest);

/**
 * Parse a manifest document.
 * @throws std::runtime_error on malformed JSON, a format/version
 * mismatch, or a cell whose stored id disagrees with its content.
 */
CampaignManifest parseCampaignManifest(const std::string &json);

/** Write @p manifest to @p path atomically (tmp + rename). */
void writeCampaignManifest(const CampaignManifest &manifest,
                           const std::string &path);

/** Read and validate a manifest file. @throws std::runtime_error. */
CampaignManifest readCampaignManifest(const std::string &path);

/** Shard directory a manifest at @p manifest_path uses by default. */
std::string campaignShardDir(const std::string &manifest_path);

/** Path of cell @p cell_id's result shard inside @p shard_dir. */
std::string campaignShardPath(const std::string &shard_dir,
                              const std::string &cell_id);

/**
 * Publish @p result as cell @p cell_id's shard: write the full document
 * to `<shard>.tmp.<pid>`, then atomically rename it over the final
 * name. A crash at any point leaves either no shard or a complete one.
 * @throws std::runtime_error on I/O failure.
 */
void writeCampaignShard(const std::string &shard_dir,
                        const std::string &cell_id,
                        const ExperimentResult &result);

/**
 * Load cell @p cell_id's shard if present.
 * @return false if the shard does not exist.
 * @throws std::runtime_error on a torn/foreign/mismatched shard.
 */
bool readCampaignShard(const std::string &shard_dir,
                       const std::string &cell_id,
                       ExperimentResult &out);

// --- result serialization ----------------------------------------------------

/**
 * Serialize one ExperimentResult — counters, attempt histograms,
 * interval series, latency histograms — as a compact JSON object.
 * Integers are exact; doubles print with %.17g so strtod() reconstructs
 * them bit-for-bit; histograms store sparse (bucket, count) pairs.
 */
std::string experimentResultToJson(const ExperimentResult &result);

/** Inverse of experimentResultToJson. @throws std::runtime_error. */
ExperimentResult parseExperimentResult(const std::string &json);

// --- running / merging -------------------------------------------------------

/** Outcome summary of runCampaignCells. */
struct CampaignRunReport
{
    std::size_t ran = 0;     //!< cells computed and published
    std::size_t skipped = 0; //!< cells whose shard already existed
    std::size_t failed = 0;  //!< cells whose experiment threw
};

/**
 * Run cells [@p begin, @p end) of @p manifest on @p jobs worker
 * threads, skipping cells whose shard already exists (resume) and
 * publishing each completed cell atomically. Stale temporary files
 * left by killed workers for this range's cells are removed first. A
 * cell whose experiment throws is reported on stderr and counted
 * failed, like a SweepRunner cell. The shard directory is created if
 * missing.
 */
CampaignRunReport runCampaignCells(const CampaignManifest &manifest,
                                   const std::string &shard_dir,
                                   std::size_t begin, std::size_t end,
                                   unsigned jobs);

/** Per-cell completion state of a campaign. */
struct CampaignStatus
{
    std::size_t total = 0;
    std::size_t done = 0;
    /** Manifest indices of cells with no shard, in cell order. */
    std::vector<std::size_t> missing;
};

/** Scan @p shard_dir for @p manifest's shards. */
CampaignStatus campaignStatus(const CampaignManifest &manifest,
                              const std::string &shard_dir);

/**
 * Load every cell's shard and regroup them into the exact
 * `runMany()`-shaped record groups (one vector per spec, cell order).
 * @throws std::runtime_error listing the missing cells if the campaign
 * is incomplete, or on a torn/mismatched shard.
 */
std::vector<std::vector<SweepRecord>>
mergeCampaignShards(const CampaignManifest &manifest,
                    const std::string &shard_dir);

/**
 * Reference single-process run: every manifest cell through
 * `runExperiment` on @p runner's pool (cell-order results, any --jobs),
 * grouped like mergeCampaignShards. A cell that throws is dropped with
 * a stderr note, exactly like SweepRunner::runMany.
 */
std::vector<std::vector<SweepRecord>>
runCampaignInProcess(const CampaignManifest &manifest,
                     const SweepRunner &runner);

/**
 * Serialize record groups as the canonical campaign results document.
 * `campaign_tool merge` (from shards) and `campaign_tool local` (from
 * an in-process run) both emit through this writer, which is what makes
 * their outputs byte-identical when the underlying results are equal.
 */
std::string
campaignResultsToJson(const CampaignManifest &manifest,
                      const std::vector<std::vector<SweepRecord>> &groups);

/**
 * Parse a results document back into record groups, validating the
 * cell ids (and group count) against @p manifest so a results file from
 * an edited grid is rejected instead of mislabelled.
 * @throws std::runtime_error.
 */
std::vector<std::vector<SweepRecord>>
parseCampaignResults(const CampaignManifest &manifest,
                     const std::string &json);

// --- harness integration -----------------------------------------------------

/**
 * The campaign-aware replacement for `runner.runMany(specs)` every grid
 * harness routes through:
 *
 *  - `--campaign-manifest=PATH`: serialize the grid (under the
 *    harness's --filter) to PATH, print a cell-count note on stderr,
 *    and exit 0 — the harness emits no tables; the campaign tool owns
 *    execution from here.
 *  - `--campaign-results=PATH`: skip execution and load a merged
 *    results document instead, validated against this exact grid; the
 *    harness then renders its normal tables from the loaded records,
 *    byte-identical to an in-process run over the same results.
 *  - neither flag: plain `runner.runMany(specs)`.
 *
 * Exits 2 with a message on a results/grid mismatch or unreadable file.
 */
std::vector<std::vector<SweepRecord>>
campaignRunMany(const HarnessOptions &cli, const SweepRunner &runner,
                std::span<const SweepSpec> specs, const std::string &tool);

} // namespace cdir

#endif // CDIR_SIM_CAMPAIGN_HH
