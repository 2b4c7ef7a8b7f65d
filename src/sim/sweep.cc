#include "sim/sweep.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "model/cost_model.hh"
#include "workload/fleet.hh"
#include "workload/scenario.hh"
#include "workload/trace.hh"

namespace cdir {

// --- SweepSpec ---------------------------------------------------------------

SweepSpec &
SweepSpec::config(std::string label, CmpConfig cfg)
{
    cfgAxis.push_back(ConfigAxisPoint{std::move(label), std::move(cfg)});
    return *this;
}

SweepSpec &
SweepSpec::workload(std::string label, WorkloadParams params)
{
    wlAxis.push_back(
        WorkloadAxisPoint{std::move(label), std::move(params)});
    return *this;
}

SweepSpec &
SweepSpec::options(std::string label, ExperimentOptions opts)
{
    optAxis.push_back(OptionsAxisPoint{std::move(label), opts});
    return *this;
}

// --- SweepRunner -------------------------------------------------------------

std::string
sweepCellLabel(const std::string &config_label,
               const std::string &workload_label,
               const std::string &options_label)
{
    std::string label = config_label;
    label += '/';
    label += workload_label;
    if (!options_label.empty()) {
        label += '/';
        label += options_label;
    }
    return label;
}

namespace {

/**
 * Append @p params as workload points labelled by their names, except
 * that a name two points share falls back to that point's @p fallbacks
 * entry (a corpus holding oltp.ctr and oltp.trace, or a/night.scn and
 * b/night.scn), so axis labels stay unique and --filter can tell the
 * cells apart.
 */
void
appendUniquelyLabelled(SweepSpec &spec, std::vector<WorkloadParams> params,
                       const std::vector<std::string> &fallbacks)
{
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < params.size(); ++i) {
        const auto same = [&](const WorkloadParams &p) {
            return p.name == params[i].name;
        };
        labels.push_back(
            std::count_if(params.begin(), params.end(), same) > 1
                ? fallbacks[i]
                : params[i].name);
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        params[i].name = labels[i];
        spec.workload(std::move(labels[i]), std::move(params[i]));
    }
}

} // namespace

void
appendTraceWorkloads(SweepSpec &spec, const std::string &path)
{
    // Label by stem, falling back to the full filename.
    std::vector<WorkloadParams> params;
    std::vector<std::string> filenames;
    for (const std::string &file : listTraceFiles(path)) {
        params.push_back(traceWorkloadParams(file));
        filenames.push_back(std::filesystem::path(file).filename().string());
    }
    appendUniquelyLabelled(spec, std::move(params), filenames);
}

void
appendScenarioWorkloads(SweepSpec &spec, const std::string &specs,
                        std::size_t max_cores)
{
    const std::vector<std::string> items = splitScenarioSpecs(specs);
    if (items.empty())
        throw std::runtime_error("--scenario= names no scenarios");

    const auto &presets = scenarioPresetNames();
    std::vector<WorkloadParams> params;
    for (const std::string &item : items) {
        // Fail fast on a bad spec, file path, schedule, or core bound:
        // a preset name is known-good (and adapts to any core count), a
        // fleet/slo-ramp spec validates by constructing a throwaway
        // instance, and anything else must parse as a scenario file now
        // rather than erroring once per grid cell later.
        if (isFleetSpec(item) || isSloRampSpec(item)) {
            makeDynamicSource(item, max_cores != 0 ? max_cores : 16);
        } else if (std::find(presets.begin(), presets.end(), item) ==
                   presets.end()) {
            const Scenario scenario = parseScenarioFile(item);
            if (max_cores != 0 && scenario.numCores > max_cores)
                throw std::runtime_error(
                    item + ": scenario needs " +
                    std::to_string(scenario.numCores) +
                    " cores but the grid's systems have " +
                    std::to_string(max_cores));
        }
        params.push_back(dynamicWorkloadParams(item));
    }
    // Label by stem/preset name, falling back to the full spec.
    appendUniquelyLabelled(spec, std::move(params), items);
}

std::string
SweepCell::label() const
{
    return sweepCellLabel(configLabel, workloadLabel, optionsLabel);
}

SweepRunner::SweepRunner(SweepOptions options) : opts(std::move(options)) {}

bool
SweepRunner::matchesFilter(const std::string &cell_label) const
{
    if (opts.filter.empty())
        return true;
    for (const std::string_view needle : splitList(opts.filter, ','))
        if (!needle.empty() &&
            cell_label.find(needle) != std::string::npos)
            return true;
    return false;
}

std::vector<SweepRecord>
SweepRunner::run(const SweepSpec &spec) const
{
    return runMany(std::span<const SweepSpec>(&spec, 1)).front();
}

std::vector<std::vector<SweepRecord>>
SweepRunner::runMany(std::span<const SweepSpec> specs) const
{
    return runCells(cells(specs), specs.size());
}

std::vector<SweepCell>
SweepRunner::cells(std::span<const SweepSpec> specs) const
{
    static const OptionsAxisPoint default_options{"", ExperimentOptions{}};
    std::vector<SweepCell> out;
    for (std::size_t g = 0; g < specs.size(); ++g) {
        const SweepSpec &spec = specs[g];
        out.reserve(out.size() + spec.cellCount());
        for (std::size_t c = 0; c < spec.configs().size(); ++c) {
            for (std::size_t w = 0; w < spec.workloads().size(); ++w) {
                for (std::size_t o = 0; o < spec.optionsPoints(); ++o) {
                    const OptionsAxisPoint &opt =
                        spec.optionsAxis().empty() ? default_options
                                                   : spec.optionsAxis()[o];
                    SweepCell cell;
                    cell.specIndex = g;
                    cell.configIndex = c;
                    cell.workloadIndex = w;
                    cell.optionsIndex = o;
                    cell.configLabel = spec.configs()[c].label;
                    cell.workloadLabel = spec.workloads()[w].label;
                    cell.optionsLabel = opt.label;
                    if (!matchesFilter(cell.label()))
                        continue;
                    cell.config = spec.configs()[c].config;
                    cell.workload = spec.workloads()[w].workload;
                    cell.options = opt.options;
                    out.push_back(std::move(cell));
                }
            }
        }
    }
    return out;
}

std::vector<std::vector<SweepRecord>>
SweepRunner::runCells(std::span<const SweepCell> cells,
                      std::size_t spec_count) const
{
    // Results land in their cell's slot from any worker, so the grids of
    // a multi-configuration harness share every worker. A cell that
    // throws (a trace cell's strict reader hitting a bad record, an
    // out-of-range core id for this grid's CMP) is dropped like a
    // filtered-out cell — consumers already render missing cells as
    // '-' — instead of aborting the whole harness through an uncaught
    // exception in main. Messages are emitted serially after the sweep
    // so output stays deterministic.
    std::vector<ExperimentResult> results(cells.size());
    std::vector<std::string> failures(cells.size());
    parallelFor(opts.jobs, cells.size(), [&](std::size_t i) {
        try {
            results[i] = runExperiment(cells[i].config, cells[i].workload,
                                       cells[i].options);
        } catch (const std::exception &e) {
            failures[i] = e.what();
        }
    });

    std::vector<std::vector<SweepRecord>> groups(spec_count);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!failures[i].empty()) {
            std::fprintf(stderr, "sweep cell '%s' failed: %s\n",
                         cells[i].label().c_str(), failures[i].c_str());
            continue;
        }
        noteExhaustedCell(cells[i], results[i].system.accesses);
        groups.at(cells[i].specIndex)
            .push_back(sweepRecord(cells[i], std::move(results[i])));
    }
    return groups;
}

SweepRecord
sweepRecord(const SweepCell &cell, ExperimentResult result)
{
    return SweepRecord{cell.configIndex,  cell.workloadIndex,
                       cell.optionsIndex, cell.configLabel,
                       cell.workloadLabel, cell.optionsLabel,
                       std::move(result)};
}

void
noteExhaustedCell(const SweepCell &cell, std::uint64_t measured_accesses)
{
    const bool finite = !cell.workload.tracePath.empty() ||
                        !cell.workload.scenarioSpec.empty();
    if (finite && measured_accesses == 0)
        std::fprintf(stderr,
                     "sweep cell '%s': workload exhausted during warmup — "
                     "0 accesses measured (shrink --warmup= or lengthen "
                     "the trace/scenario)\n",
                     cell.label().c_str());
}

// --- report cells ------------------------------------------------------------

ReportCell
cellText(std::string text)
{
    ReportCell cell;
    cell.text = std::move(text);
    return cell;
}

ReportCell
cellNum(double value, const char *format)
{
    ReportCell cell;
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    cell.text = buf;
    cell.value = value;
    cell.numeric = true;
    return cell;
}

ReportCell
cellPct(double fraction)
{
    ReportCell cell;
    char buf[32];
    if (fraction == 0.0)
        std::snprintf(buf, sizeof buf, "0");
    else if (fraction < 0.0001)
        std::snprintf(buf, sizeof buf, "%.4f%%", fraction * 100.0);
    else
        std::snprintf(buf, sizeof buf, "%.3f%%", fraction * 100.0);
    cell.text = buf;
    cell.value = fraction;
    cell.numeric = true;
    return cell;
}

ReportCell
cellMissing()
{
    ReportCell cell;
    cell.text = "-";
    return cell;
}

// --- ReportTable -------------------------------------------------------------

ReportTable::ReportTable(std::string title, std::vector<std::string> columns)
    : heading(std::move(title)), headers(std::move(columns))
{
}

void
ReportTable::addRow(std::vector<ReportCell> cells)
{
    if (cells.size() != headers.size()) {
        std::fprintf(stderr,
                     "ReportTable '%s': row has %zu cells, expected %zu\n",
                     heading.c_str(), cells.size(), headers.size());
        std::abort();
    }
    body.push_back(std::move(cells));
}

// --- Reporter ----------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

namespace {

/** Quote a CSV field only when it needs it. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

void
emitAlignedTable(const ReportTable &t, std::FILE *out)
{
    std::fprintf(out, "\n=== %s ===\n", t.title().c_str());
    const std::size_t cols = t.columns().size();
    std::vector<std::size_t> width(cols);
    // A column right-aligns (cells and header) iff it holds a numeric
    // (or filtered-out "-") cell and no text cell.
    std::vector<bool> right(cols, false), text(cols, false);
    for (std::size_t c = 0; c < cols; ++c)
        width[c] = t.columns()[c].size();
    for (const auto &row : t.rows()) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            width[c] = std::max(width[c], row[c].text.size());
            (row[c].numeric || row[c].text == "-" ? right : text)[c] =
                true;
        }
    }
    for (std::size_t c = 0; c < cols; ++c)
        right[c] = right[c] && !text[c];

    for (std::size_t c = 0; c < cols; ++c)
        std::fprintf(out, "%s%*s", c == 0 ? "" : "  ",
                     static_cast<int>(width[c]) * (right[c] ? 1 : -1),
                     t.columns()[c].c_str());
    std::fprintf(out, "\n");
    for (const auto &row : t.rows()) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::fprintf(out, "%s%*s", c == 0 ? "" : "  ",
                         static_cast<int>(width[c]) * (right[c] ? 1 : -1),
                         row[c].text.c_str());
        }
        std::fprintf(out, "\n");
    }
}

void
emitCsvTable(const ReportTable &t, std::FILE *out)
{
    std::fprintf(out, "# %s\n", t.title().c_str());
    for (std::size_t c = 0; c < t.columns().size(); ++c)
        std::fprintf(out, "%s%s", c == 0 ? "" : ",",
                     csvField(t.columns()[c]).c_str());
    std::fprintf(out, "\n");
    for (const auto &row : t.rows()) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::fprintf(out, "%s", c == 0 ? "" : ",");
            if (row[c].numeric)
                std::fprintf(out, "%.17g", row[c].value);
            else
                std::fprintf(out, "%s", csvField(row[c].text).c_str());
        }
        std::fprintf(out, "\n");
    }
}

void
emitJsonTable(const ReportTable &t, std::FILE *out)
{
    std::fprintf(out, "{\"title\": \"%s\", \"columns\": [",
                 jsonEscape(t.title()).c_str());
    for (std::size_t c = 0; c < t.columns().size(); ++c)
        std::fprintf(out, "%s\"%s\"", c == 0 ? "" : ", ",
                     jsonEscape(t.columns()[c]).c_str());
    std::fprintf(out, "], \"rows\": [");
    for (std::size_t r = 0; r < t.rows().size(); ++r) {
        std::fprintf(out, "%s\n  [", r == 0 ? "" : ",");
        const auto &row = t.rows()[r];
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::fprintf(out, "%s", c == 0 ? "" : ", ");
            if (row[c].numeric)
                std::fprintf(out, "%.17g", row[c].value);
            else
                std::fprintf(out, "\"%s\"",
                             jsonEscape(row[c].text).c_str());
        }
        std::fprintf(out, "]");
    }
    std::fprintf(out, "]}");
}

} // namespace

Reporter::Reporter(ReportFormat format, std::FILE *out)
    : fmt(format), stream(out)
{
}

Reporter::~Reporter()
{
    if (fmt == ReportFormat::Json)
        std::fprintf(stream, jsonStarted ? "\n]\n" : "[]\n");
    std::fflush(stream);
}

void
Reporter::jsonSeparator()
{
    std::fprintf(stream, jsonStarted ? ",\n" : "[\n");
    jsonStarted = true;
}

void
Reporter::table(const ReportTable &t)
{
    switch (fmt) {
      case ReportFormat::Table:
        emitAlignedTable(t, stream);
        break;
      case ReportFormat::Csv:
        emitCsvTable(t, stream);
        break;
      case ReportFormat::Json:
        jsonSeparator();
        emitJsonTable(t, stream);
        break;
    }
}

void
Reporter::note(const std::string &text)
{
    switch (fmt) {
      case ReportFormat::Table:
        std::fprintf(stream, "\n%s\n", text.c_str());
        break;
      case ReportFormat::Csv:
        std::fprintf(stream, "# %s\n", text.c_str());
        break;
      case ReportFormat::Json:
        jsonSeparator();
        std::fprintf(stream, "{\"note\": \"%s\"}",
                     jsonEscape(text).c_str());
        break;
    }
}

// --- command-line flags ------------------------------------------------------

CliFlag
formatFlag(ReportFormat &dest)
{
    return choiceFlag<ReportFormat>("format", dest,
                                    {{"table", ReportFormat::Table},
                                     {"csv", ReportFormat::Csv},
                                     {"json", ReportFormat::Json}},
                                    "output format (default table)");
}

CliFlag
costModelFlag(std::vector<std::string> &dest)
{
    return {"cost-model", "M[,M...]",
            "time cells under cost models: fixed, mesh or all",
            [&dest](std::string_view v) {
                if (v == "all") {
                    dest = costModelNames();
                    return true;
                }
                dest.clear();
                for (const std::string_view name : splitList(v, ','))
                    if (!isCostModelName(dest.emplace_back(name)))
                        return false;
                return true;
            }};
}

CliFlag
costModelFlag(std::string &dest)
{
    return {"cost-model", "M",
            "time every access under cost model fixed or mesh",
            [&dest](std::string_view v) {
                dest = v;
                return isCostModelName(dest);
            }};
}

std::vector<std::string>
CliFlags::parse(int argc, char **argv, std::size_t max_args) const
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!arg.starts_with("--")) {
            if (args.size() == max_args)
                fail("unexpected argument '" + std::string(arg) + "'");
            args.emplace_back(arg);
            continue;
        }
        bool ok = false;
        if (setFlag(flags, arg.substr(2), ok) == nullptr)
            fail("unknown flag '" +
                 std::string(arg.substr(0, arg.find('='))) + "'");
        if (!ok)
            fail("bad value in '" + std::string(arg) + "'");
    }
    return args;
}

std::uint64_t
CliFlags::count(const std::string &text, std::uint64_t min) const
{
    const std::optional<std::uint64_t> value = parseCliUnsigned(text);
    if (!value || *value < min)
        fail("bad value in '" + text + "'");
    return *value;
}

void
CliFlags::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n%s", program.c_str(), message.c_str(),
                 usage().c_str());
    std::exit(2);
}

std::string
CliFlags::usage() const
{
    std::string out = "usage: " + program + " " + synopsis + "\n";
    for (const CliFlag &flag : flags) {
        std::string line = "  --" + flag.name;
        if (!flag.value.empty())
            line += "=" + flag.value;
        line.resize(std::max<std::size_t>(line.size() + 2, 26), ' ');
        out += line + flag.help + "\n";
    }
    return out;
}

// --- shared harness CLI ------------------------------------------------------

CliFlags
harnessFlags(const char *argv0, HarnessOptions &opts, unsigned shared,
             std::vector<CliFlag> knobs)
{
    CliFlags cli{std::filesystem::path(argv0).filename().string(),
                 "[flags]", {}};
    const auto declare = [&](unsigned bit, CliFlag flag) {
        if (shared & bit)
            cli.flags.push_back(std::move(flag));
    };
    declare(kJobsFlag,
            countFlag("jobs", opts.jobs, 0,
                      "worker threads (0 = every hardware thread)"));
    declare(kFormatFlag, formatFlag(opts.format));
    declare(kFilterFlag,
            textFlag("filter", opts.filter, "S[,S...]",
                     "run only cells whose label contains a substring"));
    declare(kScaleFlag,
            countFlag("scale", opts.scale, 1, "run-length multiplier"));
    declare(kRunLengthFlags,
            countFlag("warmup", opts.warmupOverride, 0,
                      "override the warmup access count"));
    declare(kRunLengthFlags,
            countFlag("measure", opts.measureOverride, 0,
                      "override the measured access count"));
    declare(kTraceFlag,
            textFlag("trace", opts.trace, "FILE|DIR",
                     "replay recorded traces as the workload axis"));
    declare(kScenarioFlag,
            textFlag("scenario", opts.scenario, "S[,S...]",
                     "scenarios, 'all' or fleet: specs as the workload "
                     "axis"));
    declare(kProbeEveryFlag,
            countFlag("probe-every", opts.probeEvery, 1,
                      "probe interval of closed-loop workloads"));
    declare(kCostModelFlag, costModelFlag(opts.costModels));
    declare(kCampaignFlags,
            textFlag("campaign-manifest", opts.campaignManifest, "PATH",
                     "write the grid as a campaign manifest and exit"));
    declare(kCampaignFlags,
            textFlag("campaign-results", opts.campaignResults, "PATH",
                     "render tables from merged campaign results"));
    for (CliFlag &knob : knobs)
        cli.flags.push_back(std::move(knob));
    return cli;
}

HarnessOptions
parseHarnessOptions(int argc, char **argv, unsigned shared,
                    std::vector<CliFlag> knobs)
{
    HarnessOptions opts;
    const CliFlags cli =
        harnessFlags(argv[0], opts, shared, std::move(knobs));
    cli.parse(argc, argv);
    if (!opts.trace.empty() && !opts.scenario.empty())
        cli.fail("--trace and --scenario are mutually exclusive workload "
                 "axes");
    if (!opts.campaignManifest.empty() && !opts.campaignResults.empty())
        cli.fail("--campaign-manifest and --campaign-results are "
                 "mutually exclusive");
    return opts;
}

void
appendCostModelOptions(SweepSpec &spec, const std::string &label,
                       const ExperimentOptions &base,
                       const HarnessOptions &cli)
{
    if (cli.costModels.empty()) {
        spec.options(label, base);
        return;
    }
    for (const std::string &model : cli.costModels) {
        ExperimentOptions opts = base;
        opts.costModel = model;
        spec.options(label.empty() ? model : label + "/" + model, opts);
    }
}

} // namespace cdir
