/**
 * @file
 * Parallel experiment sweep engine.
 *
 * The paper's evaluation is a grid — Table 2 workloads x directory
 * organizations x provisioning points — and every figure harness used to
 * hand-roll its own serial loops over it. This subsystem makes the grid
 * declarative and thread-parallel:
 *
 *  - `SweepSpec`: a cartesian grid of labelled axes — `CmpConfig`
 *    (system + directory organization), `WorkloadParams`, and
 *    `ExperimentOptions` (run lengths). An omitted options axis means
 *    "one default point".
 *  - `SweepCell`: one grid cell — spec index, axis coordinates and
 *    labels, and its config/workload/options. `SweepRunner::cells()`
 *    is the only enumeration of a grid (filter applied, implicit
 *    default options point included); campaign manifests
 *    (sim/campaign.hh) are that list, serialized.
 *  - `SweepRunner`: `runCells()` runs a cell list's `runExperiment`s
 *    through `parallelFor` (`common/parallel_for.hh`) and groups the
 *    records per spec; `runMany(specs)` is `runCells(cells(specs))`.
 *    Results land in cell order regardless of scheduling, and every
 *    cell constructs its own `CmpSystem` and `SyntheticWorkload` RNG,
 *    so a sweep is deterministic at any `--jobs` value. The generic
 *    `map()` escape hatch runs arbitrary per-cell computations (the
 *    analytical-model and cuckoo-table harnesses) the same way.
 *  - `ReportTable` + `Reporter`: one table abstraction emitted as an
 *    aligned text table, CSV, or JSON, replacing per-harness printf
 *    scattering.
 *  - `CliFlags`: the one command-line parser of every harness, example
 *    and tool. A program declares each flag it honours once as a
 *    `CliFlag` (name, destination, value check, help line; declared in
 *    common/cli_flag.hh, whose `setFlag` lookup the workload spec
 *    grammars share); `--name=value` sets a declared flag, anything
 *    undeclared or malformed exits 2 with the usage text generated
 *    from the declarations, and positionals go back to the caller.
 *    `parseHarnessOptions` declares the subset of the shared harness
 *    flags (`HarnessOptions`) a harness's grid honours, plus its own
 *    knobs, so an inapplicable flag is rejected instead of silently
 *    ignored.
 *
 * Thread-safety contract (audited): `runExperiment` touches no global
 * mutable state — the directory organization table is constant data,
 * hash families and Zipf samplers are per-instance, and the only process-wide tables
 * (`allPaperWorkloads`) are immutable after their thread-safe magic
 * static initialization. Concurrent cells therefore share nothing.
 */

#ifndef CDIR_SIM_SWEEP_HH
#define CDIR_SIM_SWEEP_HH

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/cli_flag.hh"
#include "common/parallel_for.hh"
#include "sim/experiment.hh"

namespace cdir {

// --- grid declaration --------------------------------------------------------

/** One labelled point on the configuration axis. */
struct ConfigAxisPoint
{
    std::string label;
    CmpConfig config;
};

/** One labelled point on the workload axis. */
struct WorkloadAxisPoint
{
    std::string label;
    WorkloadParams workload;
};

/** One labelled point on the experiment-length axis. */
struct OptionsAxisPoint
{
    std::string label;
    ExperimentOptions options;
};

/** Declarative cartesian experiment grid (see file comment). */
class SweepSpec
{
  public:
    /** Append a configuration axis point. @return *this for chaining. */
    SweepSpec &config(std::string label, CmpConfig cfg);

    /** Append a workload axis point. @return *this for chaining. */
    SweepSpec &workload(std::string label, WorkloadParams params);

    /** Append an options axis point. @return *this for chaining. */
    SweepSpec &options(std::string label, ExperimentOptions opts);

    const std::vector<ConfigAxisPoint> &configs() const { return cfgAxis; }
    const std::vector<WorkloadAxisPoint> &workloads() const
    {
        return wlAxis;
    }
    /** Options axis; empty means one default ExperimentOptions point. */
    const std::vector<OptionsAxisPoint> &optionsAxis() const
    {
        return optAxis;
    }

    /** Cells in the full grid (options axis counted as >= 1). */
    std::size_t
    cellCount() const
    {
        return cfgAxis.size() * wlAxis.size() * optionsPoints();
    }

    /** Points on the options axis, counting the implicit default. */
    std::size_t
    optionsPoints() const
    {
        return optAxis.empty() ? 1 : optAxis.size();
    }

  private:
    std::vector<ConfigAxisPoint> cfgAxis;
    std::vector<WorkloadAxisPoint> wlAxis;
    std::vector<OptionsAxisPoint> optAxis;
};

/**
 * One filter-surviving grid cell: which spec of a runMany() span it
 * came from, its axis coordinates and labels, and the inputs its
 * experiment runs on (see file comment).
 */
struct SweepCell
{
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

/** Axis coordinates + labels + metrics of one completed grid cell. */
struct SweepRecord
{
    std::size_t configIndex = 0;
    std::size_t workloadIndex = 0;
    std::size_t optionsIndex = 0;
    std::string configLabel;
    std::string workloadLabel;
    std::string optionsLabel;
    ExperimentResult result;
};

// --- running -----------------------------------------------------------------

/** Worker-count / cell-filter knobs for a sweep. */
struct SweepOptions
{
    /** Worker threads; 0 = one per hardware thread, 1 = serial. */
    unsigned jobs = 1;
    /**
     * Comma-separated substrings; a cell runs iff its
     * "config/workload/options" label contains at least one of them.
     * Empty = run everything.
     */
    std::string filter;
};

/** Runs SweepSpec grids (and generic grids) through parallelFor. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /**
     * Run every (filter-surviving) cell of @p spec through
     * `runExperiment` on `opts.jobs` threads. A cell whose experiment
     * throws (e.g. a trace cell replaying a damaged file or one with core
     * ids beyond the grid's CMP) is reported on stderr and dropped
     * from the results like a filtered-out cell.
     * @return records in cell order — options-major within workload
     * within config — independent of scheduling.
     */
    std::vector<SweepRecord> run(const SweepSpec &spec) const;

    /**
     * Run several sweep specs as one flattened cell pool, so a
     * multi-configuration harness (fig08/fig10/fig12's Shared-L2 +
     * Private-L2 grids) parallelizes across *both* grids instead of
     * draining them one after the other. Results and stderr diagnostics
     * are grouped per spec in input order, each inner vector exactly as
     * run(spec) would have produced it.
     */
    std::vector<std::vector<SweepRecord>>
    runMany(std::span<const SweepSpec> specs) const;

    /**
     * The filter-surviving cells of @p specs in runMany() order:
     * spec-major, then options-major within workload within config,
     * with the implicit default options point when a spec's options
     * axis is empty.
     */
    std::vector<SweepCell> cells(std::span<const SweepSpec> specs) const;

    /**
     * Run @p cells through `runExperiment` on `opts.jobs` threads and
     * group the records by SweepCell::specIndex into @p spec_count
     * vectors, each
     * in cell order. A cell that throws is reported on stderr and
     * dropped; a finite cell that measured nothing gets the
     * noteExhaustedCell() warning. runMany(specs) is
     * runCells(cells(specs), specs.size()).
     */
    std::vector<std::vector<SweepRecord>>
    runCells(std::span<const SweepCell> cells,
             std::size_t spec_count) const;

    /**
     * Generic grid escape hatch: compute `fn(i)` for each cell index on
     * `opts.jobs` threads and return the results in index order. For
     * harness grids that are not `runExperiment` cells (analytical model
     * sweeps,
     * cuckoo-table churn); the filter does not apply.
     */
    template <typename Result, typename Fn>
    std::vector<Result>
    map(std::size_t count, Fn &&fn) const
    {
        std::vector<Result> out(count);
        parallelFor(opts.jobs, count,
                    [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /** The options in force. */
    const SweepOptions &options() const { return opts; }

    /** True iff the label survives this runner's filter. */
    bool matchesFilter(const std::string &cell_label) const;

  private:
    SweepOptions opts;
};

/** "config/workload/options" label of one cell (filter target). */
std::string sweepCellLabel(const std::string &config_label,
                           const std::string &workload_label,
                           const std::string &options_label);

/** The record of @p cell's coordinates and labels carrying @p result. */
SweepRecord sweepRecord(const SweepCell &cell, ExperimentResult result);

/**
 * Stderr warning when @p cell replays a trace or scenario that ran dry
 * during warmup (@p measured_accesses is 0): its all-zero result would
 * otherwise look exactly like a perfect one.
 */
void noteExhaustedCell(const SweepCell &cell,
                       std::uint64_t measured_accesses);

/**
 * Append one workload axis point per trace file behind @p path (a file,
 * or a directory swept in sorted order) — the harnesses' `--trace=`
 * axis. Labels are the files' stems.
 * @throws std::runtime_error if no trace files are found.
 */
void appendTraceWorkloads(SweepSpec &spec, const std::string &path);

/**
 * Append one workload axis point per scenario in @p specs — the
 * harnesses' `--scenario=` axis: a comma-separated list of preset
 * names and/or scenario file paths, or "all" for every preset
 * (workload/scenario.hh). Labels are preset names / file stems.
 * File scenarios are parsed eagerly so a bad path or schedule fails
 * here, not in every grid cell; a non-zero @p max_cores additionally
 * rejects a file needing more cores than the grid's CMPs provide
 * (otherwise every cell would throw and be dropped, leaving an empty
 * table that exits 0).
 * @throws std::runtime_error on an unknown preset, unreadable file,
 * invalid schedule, or over-wide scenario.
 */
void appendScenarioWorkloads(SweepSpec &spec, const std::string &specs,
                             std::size_t max_cores = 0);

// --- reporting ---------------------------------------------------------------

/** Output format shared by every harness (--format=). */
enum class ReportFormat
{
    Table, //!< aligned fixed-width text (default)
    Csv,   //!< one header row then data rows; title as a # comment
    Json,  //!< array of {title, columns, rows} objects
};

/** One table cell: display text plus the raw value for CSV/JSON. */
struct ReportCell
{
    std::string text;    //!< formatted for the aligned table
    double value = 0.0;  //!< raw value (numeric cells)
    bool numeric = false;
};

/** Text cell (left-aligned, emitted as a string). */
ReportCell cellText(std::string text);

/** Numeric cell: @p value rendered with printf @p format for the table. */
ReportCell cellNum(double value, const char *format = "%.3f");

/**
 * Percentage cell over a fraction in [0, 1]: renders like the figures'
 * log-scale axes ("0", "0.0042%", "1.234%"); raw value stays the
 * fraction.
 */
ReportCell cellPct(double fraction);

/** Placeholder for a cell whose experiment was filtered out. */
ReportCell cellMissing();

/** A titled grid of cells with one header row. */
class ReportTable
{
  public:
    ReportTable(std::string title, std::vector<std::string> columns);

    /** Append a row; must match the column count. */
    void addRow(std::vector<ReportCell> cells);

    const std::string &title() const { return heading; }
    const std::vector<std::string> &columns() const { return headers; }
    const std::vector<std::vector<ReportCell>> &rows() const
    {
        return body;
    }

  private:
    std::string heading;
    std::vector<std::string> headers;
    std::vector<std::vector<ReportCell>> body;
};

/**
 * Emits tables and free-form notes in one ReportFormat. JSON output is
 * a single valid array closed when the reporter is destroyed.
 */
class Reporter
{
  public:
    explicit Reporter(ReportFormat format, std::FILE *out = stdout);
    ~Reporter();

    Reporter(const Reporter &) = delete;
    Reporter &operator=(const Reporter &) = delete;

    /** Emit one table. */
    void table(const ReportTable &t);

    /** Free-form commentary (text line / # comment / note object). */
    void note(const std::string &text);

    ReportFormat format() const { return fmt; }

  private:
    void jsonSeparator();

    ReportFormat fmt;
    std::FILE *stream;
    bool jsonStarted = false;
};

/**
 * Minimal JSON string escaping (quotes, backslashes, control chars) for
 * every JSON emitter: Reporter, series export and campaign documents.
 * Returns the string body without the surrounding quotes.
 */
std::string jsonEscape(const std::string &s);

// --- command-line flags ------------------------------------------------------

/** `--format=table|csv|json`. */
CliFlag formatFlag(ReportFormat &dest);

/**
 * `--cost-model=`: a comma-separated list of cost model names, or
 * "all" (model/cost_model.hh). Names are checked at parse time, so a
 * typo fails here, not once per grid cell mid-sweep.
 */
CliFlag costModelFlag(std::vector<std::string> &dest);

/** `--cost-model=`: exactly one cost model name. */
CliFlag costModelFlag(std::string &dest);

/**
 * A program's declared flag set — the one argv parser of every harness,
 * example and tool. The usage text is generated from the declarations.
 */
struct CliFlags
{
    std::string program;             //!< prefix of every error message
    std::string synopsis = "[flags]"; //!< usage line after the program
    std::vector<CliFlag> flags;

    /**
     * Set every `--name=value` in argv[1..argc) and return the other
     * arguments (positionals), at most @p max_args of them. An
     * undeclared flag, a bad value or a surplus positional fails().
     */
    std::vector<std::string> parse(int argc, char **argv,
                                   std::size_t max_args = 0) const;

    /** Whole-string count (parseCliUnsigned) >= @p min, or fail(). */
    std::uint64_t count(const std::string &text,
                        std::uint64_t min = 0) const;

    /** Print "program: message" and the usage text; exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /** "usage: program synopsis" and one line per declared flag. */
    std::string usage() const;
};

// --- shared harness CLI ------------------------------------------------------

/** Options shared by the figure harnesses and examples. */
struct HarnessOptions
{
    unsigned jobs = 0;          //!< --jobs=N  (0 = hardware threads)
    ReportFormat format = ReportFormat::Table; //!< --format=table|csv|json
    std::string filter;         //!< --filter=substr[,substr...]
    std::uint64_t scale = 1;    //!< --scale=N  run-length multiplier
    std::uint64_t warmupOverride = 0;  //!< --warmup=N  (0 = preset)
    std::uint64_t measureOverride = 0; //!< --measure=N (0 = preset)
    /**
     * --trace=<file|dir>: replace the synthetic workload axis with
     * recorded traces (one axis point per file; a directory is swept in
     * sorted order). Empty = synthetic presets.
     */
    std::string trace;
    /**
     * --scenario=<spec>[,...]: replace the workload axis with dynamic
     * sources — scenario preset names, scenario files, "all" for every
     * preset (workload/scenario.hh), or colon-separated fleet /
     * slo-ramp specs ("fleet:tenants=8:churn=250000",
     * "slo-ramp:target=150" — workload/fleet.hh). Empty = synthetic
     * presets. Mutually exclusive with --trace.
     */
    std::string scenario;
    /**
     * --probe-every=N: override the feedback probe interval of
     * closed-loop workloads (0 = each workload's own request; see
     * ExperimentOptions::probeEvery). No effect on open-loop cells.
     */
    std::uint64_t probeEvery = 0;
    /**
     * --cost-model=<name>[,...]: time every cell under these cost
     * models ("fixed", "mesh", or "all" — see model/cost_model.hh),
     * reporting tail-latency percentiles. Names are validated at parse
     * time. Empty (the default) runs untimed with the measure path
     * unchanged. applyOverrides() applies the first name; grid
     * harnesses expand multiple names into an options axis with
     * appendCostModelOptions().
     */
    std::vector<std::string> costModels;
    /**
     * --campaign-manifest=PATH: instead of running, serialize this
     * harness's grid as a campaign work manifest at PATH and exit 0
     * (sim/campaign.hh). Execution then belongs to campaign_tool.
     */
    std::string campaignManifest;
    /**
     * --campaign-results=PATH: skip execution and render the harness's
     * tables from a merged campaign results document, validated
     * against this exact grid. Mutually exclusive with
     * --campaign-manifest.
     */
    std::string campaignResults;

    /** SweepOptions with this jobs/filter pair. */
    SweepOptions
    sweep() const
    {
        return SweepOptions{jobs, filter};
    }

    /**
     * Apply the --warmup/--measure/--cost-model/--probe-every overrides
     * to @p opts.
     */
    ExperimentOptions
    applyOverrides(ExperimentOptions opts) const
    {
        if (warmupOverride != 0)
            opts.warmupAccesses = warmupOverride;
        if (measureOverride != 0)
            opts.measureAccesses = measureOverride;
        if (!costModels.empty())
            opts.costModel = costModels.front();
        if (probeEvery != 0)
            opts.probeEvery = probeEvery;
        return opts;
    }
};

/**
 * The shared flags as bits: each harness declares the set it honours,
 * so a flag with no effect on its grid is rejected at parse time.
 */
enum SharedFlags : unsigned
{
    kJobsFlag = 1u << 0,       //!< --jobs=
    kFormatFlag = 1u << 1,     //!< --format=
    kFilterFlag = 1u << 2,     //!< --filter=
    kScaleFlag = 1u << 3,      //!< --scale=
    kRunLengthFlags = 1u << 4, //!< --warmup= and --measure=
    kTraceFlag = 1u << 5,      //!< --trace=
    kScenarioFlag = 1u << 6,   //!< --scenario=
    kProbeEveryFlag = 1u << 7, //!< --probe-every=
    kCostModelFlag = 1u << 8,  //!< --cost-model=
    kCampaignFlags = 1u << 9,  //!< --campaign-manifest= / -results=
    /** A generic map() grid: the filter and run lengths do not apply. */
    kMapGridFlags = kJobsFlag | kFormatFlag,
    /** A runExperiment grid over fixed workloads. */
    kRunGridFlags = kMapGridFlags | kFilterFlag | kScaleFlag |
                    kRunLengthFlags,
    /** A paperSweep() grid (bench/sim_common.hh). */
    kPaperGridFlags = kRunGridFlags | kTraceFlag | kScenarioFlag |
                      kProbeEveryFlag | kCostModelFlag,
    kAllSharedFlags = kPaperGridFlags | kCampaignFlags,
};

/**
 * The flag set of a harness: the shared flags in @p shared, stored into
 * @p opts, then @p knobs. @p argv0 names the program in messages.
 */
CliFlags harnessFlags(const char *argv0, HarnessOptions &opts,
                      unsigned shared, std::vector<CliFlag> knobs = {});

/**
 * Parse a harness command line that takes no positional arguments
 * through harnessFlags(); exits 2 on an undeclared flag, a bad value,
 * a positional, or two mutually exclusive flags (--trace with
 * --scenario, --campaign-manifest with --campaign-results).
 */
HarnessOptions parseHarnessOptions(int argc, char **argv,
                                   unsigned shared = kAllSharedFlags,
                                   std::vector<CliFlag> knobs = {});

/**
 * Append the options axis a grid harness derives from @p base and the
 * --cost-model= selection: one axis point per selected model (labelled
 * by model name, prefixed by @p label when non-empty) with
 * ExperimentOptions::costModel set, or the single untimed @p label /
 * @p base point when no model was selected. Cell labels therefore gain
 * a "/fixed", "/mesh" coordinate exactly when timing is on, keeping
 * untimed harness output byte-identical to before the flag existed.
 */
void appendCostModelOptions(SweepSpec &spec, const std::string &label,
                            const ExperimentOptions &base,
                            const HarnessOptions &cli);

} // namespace cdir

#endif // CDIR_SIM_SWEEP_HH
