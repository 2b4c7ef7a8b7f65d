#include "sim/sweep.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
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

void
appendTraceWorkloads(SweepSpec &spec, const std::string &path)
{
    const std::vector<std::string> files = listTraceFiles(path);

    // Label by stem, but fall back to the full filename when stems
    // collide (e.g. a corpus holding oltp.ctr and oltp.trace) so axis
    // labels stay unique and --filter can tell the cells apart.
    std::vector<WorkloadParams> params;
    params.reserve(files.size());
    for (const std::string &file : files)
        params.push_back(traceWorkloadParams(file));
    const auto stem_collides = [&](std::size_t i) {
        for (std::size_t j = 0; j < files.size(); ++j)
            if (j != i && std::filesystem::path(files[j]).stem() ==
                              std::filesystem::path(files[i]).stem())
                return true;
        return false;
    };
    for (std::size_t i = 0; i < params.size(); ++i) {
        std::string label =
            stem_collides(i)
                ? std::filesystem::path(files[i]).filename().string()
                : params[i].name;
        params[i].name = label;
        spec.workload(std::move(label), std::move(params[i]));
    }
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
    params.reserve(items.size());
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
    // Label by stem/preset name, but fall back to the full spec when
    // labels collide (e.g. a/night.scn + b/night.scn) so axis labels
    // stay unique and --filter can tell the cells apart — the same
    // hardening appendTraceWorkloads has.
    std::vector<std::string> stems;
    stems.reserve(params.size());
    for (const WorkloadParams &p : params)
        stems.push_back(p.name);
    for (std::size_t i = 0; i < params.size(); ++i) {
        bool collides = false;
        for (std::size_t j = 0; j < stems.size(); ++j)
            if (j != i && stems[j] == stems[i])
                collides = true;
        std::string label = collides ? items[i] : stems[i];
        params[i].name = label;
        spec.workload(std::move(label), std::move(params[i]));
    }
}

SweepRunner::SweepRunner(SweepOptions options) : opts(std::move(options)) {}

bool
SweepRunner::matchesFilter(const std::string &cell_label) const
{
    if (opts.filter.empty())
        return true;
    std::string_view rest = opts.filter;
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view needle = rest.substr(0, comma);
        if (!needle.empty() &&
            cell_label.find(needle) != std::string::npos)
            return true;
        if (comma == std::string_view::npos)
            break;
        rest.remove_prefix(comma + 1);
    }
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
    static const OptionsAxisPoint default_options{
        "", ExperimentOptions{}};
    const auto optionsPoint = [](const SweepSpec &spec, std::size_t o)
        -> const OptionsAxisPoint & {
        return spec.optionsAxis().empty() ? default_options
                                          : spec.optionsAxis()[o];
    };

    // Enumerate every spec's filter-surviving cells into one flattened
    // pool up front, so results can be written into their final
    // (spec-major, cell-order) slots from any worker and the grids of a
    // multi-configuration harness share the sweep's whole thread pool.
    struct PendingCell
    {
        std::size_t spec;
        SweepRecord rec;
    };
    std::vector<PendingCell> cells;
    for (std::size_t g = 0; g < specs.size(); ++g) {
        const SweepSpec &spec = specs[g];
        cells.reserve(cells.size() + spec.cellCount());
        for (std::size_t c = 0; c < spec.configs().size(); ++c) {
            for (std::size_t w = 0; w < spec.workloads().size(); ++w) {
                for (std::size_t o = 0; o < spec.optionsPoints(); ++o) {
                    SweepRecord rec;
                    rec.configIndex = c;
                    rec.workloadIndex = w;
                    rec.optionsIndex = o;
                    rec.configLabel = spec.configs()[c].label;
                    rec.workloadLabel = spec.workloads()[w].label;
                    rec.optionsLabel = optionsPoint(spec, o).label;
                    if (!matchesFilter(sweepCellLabel(rec.configLabel,
                                                      rec.workloadLabel,
                                                      rec.optionsLabel)))
                        continue;
                    cells.push_back(PendingCell{g, std::move(rec)});
                }
            }
        }
    }

    // A cell that throws (a trace cell's strict reader hitting a bad
    // record, an out-of-range core id for this grid's CMP) is dropped
    // like a filtered-out cell — consumers already render missing
    // cells as '-' — instead of aborting the whole harness through an
    // uncaught exception in main. Messages are emitted serially after
    // the sweep so output stays deterministic.
    std::vector<std::string> failures(cells.size());
    parallelFor(opts.jobs, cells.size(), [&](std::size_t i) {
        SweepRecord &rec = cells[i].rec;
        const SweepSpec &spec = specs[cells[i].spec];
        try {
            rec.result = runExperiment(
                spec.configs()[rec.configIndex].config,
                spec.workloads()[rec.workloadIndex].workload,
                optionsPoint(spec, rec.optionsIndex).options);
        } catch (const std::exception &e) {
            failures[i] = e.what();
        }
    });

    std::vector<std::vector<SweepRecord>> surviving(specs.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SweepRecord &rec = cells[i].rec;
        const std::string label = sweepCellLabel(
            rec.configLabel, rec.workloadLabel, rec.optionsLabel);
        if (!failures[i].empty()) {
            std::fprintf(stderr, "sweep cell '%s' failed: %s\n",
                         label.c_str(), failures[i].c_str());
            continue;
        }
        // An all-zero cell from a trace (or non-looping scenario)
        // exhausted during warmup looks exactly like a perfect result;
        // never let it pass silently.
        const WorkloadParams &cell_wl = specs[cells[i].spec]
                                            .workloads()[rec.workloadIndex]
                                            .workload;
        const bool finite_cell = !cell_wl.tracePath.empty() ||
                                 !cell_wl.scenarioSpec.empty();
        if (finite_cell && rec.result.system.accesses == 0)
            std::fprintf(stderr,
                         "sweep cell '%s': workload exhausted during "
                         "warmup — 0 accesses measured (shrink "
                         "--warmup= or lengthen the trace/scenario)\n",
                         label.c_str());
        surviving[cells[i].spec].push_back(std::move(rec));
    }
    return surviving;
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

// --- shared harness CLI ------------------------------------------------------

const char *
cliFlagValue(const char *arg, const char *name)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, "--", 2) != 0)
        return nullptr;
    if (std::strncmp(arg + 2, name, len) != 0 || arg[2 + len] != '=')
        return nullptr;
    return arg + 2 + len + 1;
}

std::optional<std::uint64_t>
parseCliUnsigned(const char *text)
{
    const char *end = text + std::strlen(text);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

namespace {

[[noreturn]] void
usage(const char *bad)
{
    std::fprintf(
        stderr,
        "bad flag value '%s'\n"
        "shared harness flags:\n"
        "  --jobs=N              worker threads (0 = all hardware "
        "threads; default 0)\n"
        "  --format=table|csv|json  output format (default table)\n"
        "  --filter=S[,S...]     run only cells whose "
        "config/workload/options label\n"
        "                        contains one of the substrings\n"
        "  --scale=N             run-length multiplier\n"
        "  --warmup=N            override warmup access count\n"
        "  --measure=N           override measured access count\n"
        "  --trace=FILE|DIR      replay recorded traces as the workload "
        "axis\n"
        "                        (a directory is swept in sorted order)\n"
        "  --scenario=S[,S...]   drive dynamic workloads as the workload "
        "axis\n"
        "                        (scenario presets/files, 'all', or "
        "fleet: /\n"
        "                        slo-ramp: specs — see workload/fleet.hh)\n"
        "  --probe-every=N       override the feedback probe interval "
        "of\n"
        "                        closed-loop workloads (default: the\n"
        "                        workload's own request)\n"
        "  --cost-model=M[,M...] time each cell under these cost models\n"
        "                        ('fixed', 'mesh', or 'all'; default: "
        "untimed)\n"
        "                        and report p50/p99/p99.9 latency\n"
        "  --campaign-manifest=PATH  write this grid as a campaign work\n"
        "                        manifest and exit (run it with "
        "campaign_tool)\n"
        "  --campaign-results=PATH   render tables from a merged "
        "campaign\n"
        "                        results document instead of running\n",
        bad);
    std::exit(2);
}

/** parseCliUnsigned of flag @p arg's @p value; exits with usage if bad. */
std::uint64_t
parseU64(const char *value, const char *arg)
{
    const std::optional<std::uint64_t> parsed = parseCliUnsigned(value);
    if (!parsed)
        usage(arg);
    return *parsed;
}

} // namespace

HarnessOptions
parseHarnessOptions(int argc, char **argv)
{
    HarnessOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = cliFlagValue(argv[i], "jobs")) {
            opts.jobs = static_cast<unsigned>(parseU64(v, argv[i]));
        } else if (const char *v = cliFlagValue(argv[i], "format")) {
            if (std::strcmp(v, "table") == 0)
                opts.format = ReportFormat::Table;
            else if (std::strcmp(v, "csv") == 0)
                opts.format = ReportFormat::Csv;
            else if (std::strcmp(v, "json") == 0)
                opts.format = ReportFormat::Json;
            else
                usage(argv[i]);
        } else if (const char *v = cliFlagValue(argv[i], "filter")) {
            opts.filter = v;
        } else if (const char *v = cliFlagValue(argv[i], "scale")) {
            opts.scale = parseU64(v, argv[i]);
            if (opts.scale == 0)
                usage(argv[i]);
        } else if (const char *v = cliFlagValue(argv[i], "warmup")) {
            opts.warmupOverride = parseU64(v, argv[i]);
        } else if (const char *v = cliFlagValue(argv[i], "measure")) {
            opts.measureOverride = parseU64(v, argv[i]);
        } else if (const char *v = cliFlagValue(argv[i], "trace")) {
            if (*v == '\0')
                usage(argv[i]);
            opts.trace = v;
        } else if (const char *v = cliFlagValue(argv[i], "scenario")) {
            if (*v == '\0')
                usage(argv[i]);
            opts.scenario = v;
        } else if (const char *v = cliFlagValue(argv[i], "probe-every")) {
            opts.probeEvery = parseU64(v, argv[i]);
            if (opts.probeEvery == 0)
                usage(argv[i]);
        } else if (const char *v = cliFlagValue(argv[i], "cost-model")) {
            // Validate every name at parse time so a typo fails with a
            // usage message here, not once per grid cell mid-sweep.
            if (std::strcmp(v, "all") == 0) {
                opts.costModels = costModelNames();
            } else {
                std::string_view rest = v;
                while (!rest.empty()) {
                    const std::size_t comma = rest.find(',');
                    const std::string name(rest.substr(0, comma));
                    if (!isCostModelName(name))
                        usage(argv[i]);
                    opts.costModels.push_back(name);
                    if (comma == std::string_view::npos)
                        break;
                    rest.remove_prefix(comma + 1);
                }
                if (opts.costModels.empty())
                    usage(argv[i]);
            }
        } else if (const char *v =
                       cliFlagValue(argv[i], "campaign-manifest")) {
            if (*v == '\0')
                usage(argv[i]);
            opts.campaignManifest = v;
        } else if (const char *v =
                       cliFlagValue(argv[i], "campaign-results")) {
            if (*v == '\0')
                usage(argv[i]);
            opts.campaignResults = v;
        }
        // Anything else is a harness-specific flag or positional
        // argument; the harness parses those itself.
    }
    if (!opts.campaignManifest.empty() && !opts.campaignResults.empty()) {
        std::fprintf(stderr,
                     "--campaign-manifest and --campaign-results are "
                     "mutually exclusive\n");
        std::exit(2);
    }
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

void
warnFlagUnused(const HarnessOptions &opts,
               std::initializer_list<const char *> flags)
{
    for (const char *flag : flags) {
        if (std::strcmp(flag, "filter") == 0) {
            if (!opts.filter.empty())
                std::fprintf(stderr,
                             "note: this harness runs a generic grid; "
                             "--filter=%s has no effect\n",
                             opts.filter.c_str());
        } else if (std::strcmp(flag, "trace") == 0) {
            if (!opts.trace.empty())
                std::fprintf(stderr,
                             "note: this harness's grid is not "
                             "trace-driven; --trace=%s has no effect\n",
                             opts.trace.c_str());
        } else if (std::strcmp(flag, "scenario") == 0) {
            if (!opts.scenario.empty())
                std::fprintf(stderr,
                             "note: this harness's grid is not "
                             "scenario-driven; --scenario=%s has no "
                             "effect\n",
                             opts.scenario.c_str());
        } else if (std::strcmp(flag, "cost-model") == 0) {
            if (!opts.costModels.empty())
                std::fprintf(stderr,
                             "note: this harness runs no timed "
                             "experiment; --cost-model has no effect\n");
        } else if (std::strcmp(flag, "probe-every") == 0) {
            if (opts.probeEvery != 0)
                std::fprintf(stderr,
                             "note: this harness drives no closed-loop "
                             "workload; --probe-every has no effect\n");
        } else {
            std::fprintf(stderr,
                         "warnFlagUnused: unknown flag name '%s'\n",
                         flag);
            std::abort();
        }
    }
}

} // namespace cdir
