/**
 * @file
 * trace_tool — generate, inspect, replay, and convert memory traces.
 *
 *   trace_tool record <preset> <out> [options]   generate a trace from
 *                                                a Table 2 synthetic
 *                                                preset, a fleet: spec,
 *                                                or a scenario
 *   trace_tool replay <trace> [options]          run a trace through a
 *                                                CMP experiment and
 *                                                report directory stats
 *   trace_tool info <trace>                      header + record census
 *   trace_tool convert <in> <out> [--text]      re-encode text <->
 *              [--from=champsim]                 binary losslessly, or
 *                                                import external
 *                                                address-first text
 *
 * `record` writes the compact binary format by default (--text for the
 * line format); `replay` reproduces runExperiment's warmup-then-measure
 * methodology, so `record` followed by `replay` is bit-identical to the
 * live synthetic run of the same preset — the property pinned by
 * tests/trace_test.cc and the CI trace smoke step.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>

#include "model/cost_model.hh"
#include "sim/sweep.hh"
#include "workload/feedback.hh"
#include "workload/fleet.hh"
#include "workload/trace.hh"

using namespace cdir;

namespace {

int
usage(const char *error = nullptr)
{
    if (error)
        std::fprintf(stderr, "trace_tool: %s\n\n", error);
    std::fprintf(
        stderr,
        "usage:\n"
        "  trace_tool record <preset> <out> [--accesses=N] [--cores=N]\n"
        "             [--seed=N] [--private-l2] [--text]\n"
        "             [--code-blocks=N] [--shared-blocks=N]\n"
        "             [--private-blocks=N]\n"
        "      preset: a Table 2 label (DB2, Oracle, Qry2, Qry16, Qry17,\n"
        "      Apache, Zeus, em3d, ocean), 'synthetic' (defaults), a\n"
        "      'fleet:...' multi-tenant spec, a scenario preset, or a\n"
        "      scenario file. Closed-loop specs (slo-ramp:, scenarios\n"
        "      with 'until' triggers) are rejected: record runs no\n"
        "      system, so there is no feedback to steer on.\n"
        "      The --*-blocks flags shrink footprints for tiny fixture\n"
        "      traces. Default format is binary; --text writes lines.\n"
        "  trace_tool replay <trace> [--cores=N] [--private-l2]\n"
        "             [--org=NAME] [--ways=N] [--sets=N] [--warmup=N]\n"
        "             [--measure=N] [--cost-model=NAME]\n"
        "             [--format=table|csv|json]\n"
        "      runExperiment over the trace: warmup (stats discarded),\n"
        "      then measure; reports the directory metrics. Defaults\n"
        "      warmup=2000000 measure=2000000 (--warmup=0 = none); a\n"
        "      trace shorter than warmup+measure simply ends early.\n"
        "      --cost-model=fixed|mesh times every directory access and\n"
        "      adds latency percentile rows (p50/p99/p99.9, in cycles).\n"
        "  trace_tool info <trace>\n"
        "      format, record count, per-op and per-core census.\n"
        "  trace_tool convert <in> <out> [--text] [--from=champsim]\n"
        "             [--cores=N]\n"
        "      lossless re-encode; output is binary unless --text.\n"
        "      --from=champsim imports ChampSim-style external text\n"
        "      (one '<block-addr-hex> <core> <r|w|i>' per line; 0x\n"
        "      prefixes accepted); --cores=N rejects out-of-range core\n"
        "      ids at conversion time. Strict: a malformed input record\n"
        "      aborts the conversion with its line number.\n");
    return 2;
}

bool
parseU64(const char *value, std::uint64_t &out)
{
    const std::optional<std::uint64_t> parsed = parseCliUnsigned(value);
    if (parsed)
        out = *parsed;
    return parsed.has_value();
}

/** Sentinel for "flag not given" where 0 is a meaningful value. */
constexpr std::uint64_t kUnset = ~std::uint64_t{0};

struct CommonFlags
{
    std::uint64_t accesses = 1'000'000;
    std::uint64_t cores = 16;
    std::uint64_t seed = 0;           // 0 = preset default
    std::uint64_t warmup = kUnset;    // unset = ExperimentOptions default
    std::uint64_t measure = kUnset;
    std::uint64_t ways = 0;           // 0 = organization default
    std::uint64_t sets = 0;
    std::uint64_t codeBlocks = 0;     // 0 = preset footprint
    std::uint64_t sharedBlocks = 0;
    std::uint64_t privateBlocks = 0;
    bool privateL2 = false;
    bool text = false;
    std::string from;                 // convert input dialect ("" = native)
    std::string costModel;            // "" = untimed
    std::string organization = "Cuckoo";
    ReportFormat format = ReportFormat::Table;
    bool coresGiven = false;          // --cores= was on the command line
};

/**
 * Parse the subcommand's flags; @return false on a malformed value, an
 * unknown flag, or a flag that exists but does not apply to this
 * subcommand (silently swallowing e.g. `record --warmup=` would let the
 * user believe it had an effect).
 */
bool
parseFlags(int argc, char **argv, int first,
           std::initializer_list<const char *> allowed, CommonFlags &flags)
{
    for (int i = first; i < argc; ++i) {
        const char *arg = argv[i];
        const char *name = nullptr; //!< which known flag matched
        const char *v = nullptr;
        bool ok = true;
        if ((v = cliFlagValue(arg, name = "accesses"))) {
            ok = parseU64(v, flags.accesses) && flags.accesses != 0;
        } else if ((v = cliFlagValue(arg, name = "cores"))) {
            ok = parseU64(v, flags.cores) && flags.cores != 0;
            flags.coresGiven = true;
        } else if ((v = cliFlagValue(arg, name = "seed"))) {
            ok = parseU64(v, flags.seed);
        } else if ((v = cliFlagValue(arg, name = "warmup"))) {
            ok = parseU64(v, flags.warmup);
        } else if ((v = cliFlagValue(arg, name = "measure"))) {
            ok = parseU64(v, flags.measure);
        } else if ((v = cliFlagValue(arg, name = "ways"))) {
            ok = parseU64(v, flags.ways) && flags.ways != 0;
        } else if ((v = cliFlagValue(arg, name = "sets"))) {
            ok = parseU64(v, flags.sets) && flags.sets != 0;
        } else if ((v = cliFlagValue(arg, name = "code-blocks"))) {
            ok = parseU64(v, flags.codeBlocks) && flags.codeBlocks != 0;
        } else if ((v = cliFlagValue(arg, name = "shared-blocks"))) {
            ok = parseU64(v, flags.sharedBlocks) &&
                 flags.sharedBlocks != 0;
        } else if ((v = cliFlagValue(arg, name = "private-blocks"))) {
            ok = parseU64(v, flags.privateBlocks) &&
                 flags.privateBlocks != 0;
        } else if ((v = cliFlagValue(arg, name = "org"))) {
            flags.organization = v;
        } else if ((v = cliFlagValue(arg, name = "cost-model"))) {
            flags.costModel = v;
            ok = isCostModelName(flags.costModel);
        } else if ((v = cliFlagValue(arg, name = "from"))) {
            flags.from = v;
            ok = flags.from == "champsim" || flags.from == "native";
        } else if ((v = cliFlagValue(arg, name = "format"))) {
            if (std::strcmp(v, "table") == 0)
                flags.format = ReportFormat::Table;
            else if (std::strcmp(v, "csv") == 0)
                flags.format = ReportFormat::Csv;
            else if (std::strcmp(v, "json") == 0)
                flags.format = ReportFormat::Json;
            else
                ok = false;
        } else if (std::strcmp(arg, "--private-l2") == 0) {
            name = "private-l2";
            flags.privateL2 = true;
        } else if (std::strcmp(arg, "--text") == 0) {
            name = "text";
            flags.text = true;
        } else {
            std::fprintf(stderr, "trace_tool: unknown flag '%s'\n", arg);
            return false;
        }
        if (!ok) {
            std::fprintf(stderr, "trace_tool: bad value in '%s'\n", arg);
            return false;
        }
        const bool applies =
            std::find_if(allowed.begin(), allowed.end(),
                         [&](const char *a) {
                             return std::strcmp(a, name) == 0;
                         }) != allowed.end();
        if (!applies) {
            std::fprintf(stderr,
                         "trace_tool: --%s does not apply to the '%s' "
                         "subcommand\n",
                         name, argv[1]);
            return false;
        }
    }
    return true;
}

/** Resolve a preset label to WorkloadParams; @return false if unknown. */
bool
presetParams(const std::string &preset, const CommonFlags &flags,
             WorkloadParams &params)
{
    PaperWorkload workload{};
    if (preset == "synthetic") {
        params = WorkloadParams{};
        params.numCores = flags.cores;
    } else if (paperWorkloadByName(preset, workload)) {
        params = paperWorkloadParams(workload, flags.privateL2,
                                     flags.cores);
    } else {
        return false;
    }
    if (flags.seed != 0)
        params.seed = flags.seed;
    if (flags.codeBlocks != 0)
        params.codeBlocks = flags.codeBlocks;
    if (flags.sharedBlocks != 0)
        params.sharedBlocks = flags.sharedBlocks;
    if (flags.privateBlocks != 0)
        params.privateBlocksPerCore = flags.privateBlocks;
    return true;
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 4)
        return usage("record needs <preset> and <out>");
    CommonFlags flags;
    if (!parseFlags(argc, argv, 4,
                    {"accesses", "cores", "seed", "private-l2", "text",
                     "code-blocks", "shared-blocks", "private-blocks"},
                    flags))
        return usage();
    WorkloadParams params;
    std::unique_ptr<AccessSource> dynamic;
    if (!presetParams(argv[2], flags, params)) {
        // Not a Table 2 preset: try the dynamic-workload grammar
        // (fleet:/slo-ramp: specs, scenario presets, scenario files).
        try {
            dynamic = makeDynamicSource(argv[2], flags.cores);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "trace_tool: %s\n", e.what());
            return usage(
                "unknown preset (try DB2, ocean, ..., synthetic, a "
                "fleet:/slo-ramp: spec, or a scenario)");
        }
        // A closed-loop source steers on live system metrics; recording
        // runs no system, so there is nothing to feed back from and the
        // result would silently be the never-triggered schedule.
        const auto *consumer =
            dynamic_cast<const FeedbackConsumer *>(dynamic.get());
        if (consumer != nullptr && consumer->wantsFeedback()) {
            std::fprintf(
                stderr,
                "trace_tool: '%s' is a closed-loop workload — it steers "
                "on feedback probed from a live system, and record runs "
                "no system, so every trigger would silently never fire. "
                "Record the equivalent open-loop spec (e.g. 'fleet:...' "
                "without the ramp), or capture the closed-loop run "
                "in-process with TraceRecorder while a CmpSystem drives "
                "it (see tests/feedback_test.cc)\n",
                argv[2]);
            return 2;
        }
        params.name = argv[2];
        params.numCores = flags.cores;
    }

    SyntheticSource synthetic(params);
    AccessSource &source = dynamic ? *dynamic : synthetic;
    const std::unique_ptr<TraceSink> sink =
        makeTraceSink(argv[3], !flags.text);
    TraceRecorder recorder(source, *sink);
    for (std::uint64_t i = 0;
         i < flags.accesses && !recorder.exhausted(); ++i)
        recorder.next();
    sink->close();
    std::printf("recorded %llu accesses of '%s' (%zu cores, seed %llu) "
                "to %s [%s]\n",
                static_cast<unsigned long long>(sink->recordsWritten()),
                params.name.c_str(), params.numCores,
                static_cast<unsigned long long>(params.seed), argv[3],
                flags.text ? "text" : "binary");
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 3)
        return usage("replay needs a trace file");
    CommonFlags flags;
    if (!parseFlags(argc, argv, 3,
                    {"cores", "private-l2", "org", "ways", "sets",
                     "warmup", "measure", "cost-model",
                     "format"},
                    flags))
        return usage();

    CmpConfig config = CmpConfig::paperConfig(
        flags.privateL2 ? CmpConfigKind::PrivateL2
                        : CmpConfigKind::SharedL2,
        flags.cores);
    config.directory.organization = flags.organization;
    if (flags.ways != 0)
        config.directory.ways = static_cast<unsigned>(flags.ways);
    if (flags.sets != 0)
        config.directory.sets = flags.sets;

    ExperimentOptions options;
    if (flags.warmup != kUnset)
        options.warmupAccesses = flags.warmup; // --warmup=0 is honoured
    if (flags.measure != kUnset)
        options.measureAccesses = flags.measure;
    options.costModel = flags.costModel;

    const ExperimentResult result = runExperiment(
        config, traceWorkloadParams(argv[2]), options);
    if (result.system.accesses == 0)
        std::fprintf(stderr,
                     "trace_tool: warning: the trace was exhausted "
                     "during the %llu-access warmup — nothing was "
                     "measured (shrink --warmup= or record a longer "
                     "trace)\n",
                     static_cast<unsigned long long>(
                         options.warmupAccesses));

    Reporter report(flags.format);
    ReportTable table("trace replay: " + result.workload + " through " +
                          result.organization,
                      {"metric", "value"});
    table.addRow({cellText("measured accesses"),
                  cellNum(double(result.system.accesses), "%.0f")});
    table.addRow({cellText("cache misses"),
                  cellNum(double(result.system.cacheMisses), "%.0f")});
    table.addRow({cellText("directory insertions"),
                  cellNum(double(result.directory.insertions), "%.0f")});
    table.addRow({cellText("avg insertion attempts"),
                  cellNum(result.avgInsertionAttempts, "%.3f")});
    table.addRow({cellText("forced evictions"),
                  cellNum(double(result.directory.forcedEvictions),
                          "%.0f")});
    table.addRow({cellText("forced-invalidation rate"),
                  cellPct(result.forcedInvalidationRate)});
    table.addRow({cellText("sharing invalidations"),
                  cellNum(double(result.system.sharingInvalidations),
                          "%.0f")});
    table.addRow(
        {cellText("avg occupancy"), cellNum(result.avgOccupancy, "%.4f")});
    table.addRow({cellText("directory capacity"),
                  cellNum(double(result.directoryCapacity), "%.0f")});
    if (!result.costModel.empty()) {
        const LatencyHistogram &lat = result.system.latency;
        table.addRow({cellText("latency samples (" + result.costModel +
                               " model)"),
                      cellNum(double(lat.count()), "%.0f")});
        table.addRow(
            {cellText("latency mean"), cellNum(lat.mean(), "%.2f")});
        table.addRow({cellText("latency p50"),
                      cellNum(double(result.latencyP50), "%.0f")});
        table.addRow({cellText("latency p99"),
                      cellNum(double(result.latencyP99), "%.0f")});
        table.addRow({cellText("latency p99.9"),
                      cellNum(double(result.latencyP999), "%.0f")});
        table.addRow({cellText("latency max"),
                      cellNum(double(lat.maxLatency()), "%.0f")});
    }
    report.table(table);
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage("info needs a trace file");
    CommonFlags flags;
    if (!parseFlags(argc, argv, 3, {}, flags))
        return usage();
    const std::string path = argv[2];
    const bool binary = traceFileIsBinary(path);

    std::uint64_t reads = 0, writes = 0, ifetches = 0;
    CoreId max_core = 0;
    BlockAddr min_addr = ~BlockAddr{0}, max_addr = 0;
    // Concrete readers (not makeTraceReader) so the malformed-record
    // census and last error can be reported below.
    std::unique_ptr<TextTraceReader> text_reader;
    std::unique_ptr<BinaryTraceReader> binary_reader;
    AccessSource *reader = nullptr;
    if (binary) {
        binary_reader = std::make_unique<BinaryTraceReader>(path);
        reader = binary_reader.get();
    } else {
        text_reader = std::make_unique<TextTraceReader>(path);
        reader = text_reader.get();
    }
    std::uint64_t records = 0;
    while (!reader->exhausted()) {
        const MemAccess access = reader->next();
        ++records;
        if (access.instruction)
            ++ifetches;
        else if (access.write)
            ++writes;
        else
            ++reads;
        max_core = std::max(max_core, access.core);
        min_addr = std::min(min_addr, access.addr);
        max_addr = std::max(max_addr, access.addr);
    }
    const std::uint64_t malformed = binary
                                        ? binary_reader->malformedRecords()
                                        : text_reader->malformedRecords();
    const std::string &last_error =
        binary ? binary_reader->lastError() : text_reader->lastError();

    std::printf("%s: %s trace, %llu records\n", path.c_str(),
                binary ? "binary" : "text",
                static_cast<unsigned long long>(records));
    if (malformed != 0)
        std::printf("  MALFORMED %llu records skipped (last: %s)\n",
                    static_cast<unsigned long long>(malformed),
                    last_error.c_str());
    if (records == 0)
        return 0;
    std::printf("  reads    %10llu (%.1f%%)\n",
                static_cast<unsigned long long>(reads),
                100.0 * double(reads) / double(records));
    std::printf("  writes   %10llu (%.1f%%)\n",
                static_cast<unsigned long long>(writes),
                100.0 * double(writes) / double(records));
    std::printf("  ifetches %10llu (%.1f%%)\n",
                static_cast<unsigned long long>(ifetches),
                100.0 * double(ifetches) / double(records));
    std::printf("  cores    0..%u\n", max_core);
    std::printf("  blocks   %#llx..%#llx\n",
                static_cast<unsigned long long>(min_addr),
                static_cast<unsigned long long>(max_addr));
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4)
        return usage("convert needs <in> and <out>");
    CommonFlags flags;
    if (!parseFlags(argc, argv, 4, {"text", "from", "cores"}, flags))
        return usage();

    // Strict: a malformed input record aborts the conversion instead
    // of being silently dropped from a "lossless" re-encode. Errors
    // carry the line number (text dialects) / byte offset (binary).
    const TraceReadOptions read_opts{
        flags.coresGiven ? flags.cores : 0, /*strict=*/true};
    std::unique_ptr<AccessSource> reader;
    if (flags.from == "champsim")
        reader = std::make_unique<ChampSimTraceReader>(argv[2], read_opts);
    else
        reader = makeTraceReader(argv[2], read_opts);
    const std::unique_ptr<TraceSink> sink =
        makeTraceSink(argv[3], !flags.text);
    std::uint64_t records = 0;
    while (!reader->exhausted()) {
        sink->write(reader->next());
        ++records;
    }
    sink->close();
    std::printf("converted %llu records: %s -> %s [%s]\n",
                static_cast<unsigned long long>(records), argv[2],
                argv[3], flags.text ? "text" : "binary");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "record")
            return cmdRecord(argc, argv);
        if (command == "replay")
            return cmdReplay(argc, argv);
        if (command == "info")
            return cmdInfo(argc, argv);
        if (command == "convert")
            return cmdConvert(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trace_tool: %s\n", e.what());
        return 1;
    }
    return usage("unknown subcommand");
}
