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
#include <memory>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "workload/feedback.hh"
#include "workload/fleet.hh"
#include "workload/trace.hh"

using namespace cdir;

namespace {

struct CommonFlags
{
    std::uint64_t accesses = 1'000'000;
    std::uint64_t cores = 16;
    std::uint64_t checkCores = 0;     // convert: 0 = no core-id bound
    std::uint64_t seed = 0;           // 0 = preset default
    std::uint64_t ways = 0;           // 0 = organization default
    std::uint64_t sets = 0;
    std::uint64_t codeBlocks = 0;     // 0 = preset footprint
    std::uint64_t sharedBlocks = 0;
    std::uint64_t privateBlocks = 0;
    bool privateL2 = false;
    bool text = false;
    bool champsim = false;            // convert input dialect
    std::string organization = "Cuckoo";
    ExperimentOptions experiment;     // replay run lengths and cost model
    ReportFormat format = ReportFormat::Table;
};

/** The flag set of subcommand @p command, stored into @p f. */
std::vector<CliFlag>
commandFlags(const std::string &command, CommonFlags &f)
{
    const CliFlag cores =
        countFlag("cores", f.cores, 1, "cores of the CMP (default 16)");
    const CliFlag private_l2 = toggleFlag(
        "private-l2", f.privateL2, "the Private-L2 configuration");
    const CliFlag text = toggleFlag(
        "text", f.text, "write the line format (default binary)");
    if (command == "record")
        return {countFlag("accesses", f.accesses, 1,
                          "accesses to record (default 1000000)"),
                cores,
                countFlag("seed", f.seed, 0,
                          "workload seed (default: the preset's)"),
                private_l2,
                text,
                countFlag("code-blocks", f.codeBlocks, 1,
                          "code footprint in blocks (tiny fixtures)"),
                countFlag("shared-blocks", f.sharedBlocks, 1,
                          "shared-data footprint in blocks"),
                countFlag("private-blocks", f.privateBlocks, 1,
                          "per-core private footprint in blocks")};
    if (command == "replay")
        return {cores,
                private_l2,
                textFlag("org", f.organization, "NAME",
                         "directory organization (default Cuckoo)"),
                countFlag("ways", f.ways, 1, "directory ways per slice"),
                countFlag("sets", f.sets, 1, "directory sets per way"),
                countFlag("warmup", f.experiment.warmupAccesses, 0,
                          "warmup accesses, stats discarded (default "
                          "2000000)"),
                countFlag("measure", f.experiment.measureAccesses, 0,
                          "measured accesses (default 2000000)"),
                costModelFlag(f.experiment.costModel),
                formatFlag(f.format)};
    if (command == "convert")
        return {text,
                choiceFlag<bool>("from", f.champsim,
                                 {{"native", false}, {"champsim", true}},
                                 "input dialect; champsim reads "
                                 "'<addr> <core> <r|w|i>'"),
                countFlag("cores", f.checkCores, 1,
                          "reject core ids >= N at conversion time")};
    return {};
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
cmdRecord(const std::vector<std::string> &args, const CommonFlags &flags)
{
    WorkloadParams params;
    std::unique_ptr<AccessSource> dynamic;
    if (!presetParams(args[0], flags, params)) {
        // Not a Table 2 preset: try the dynamic-workload grammar
        // (fleet:/slo-ramp: specs, scenario presets, scenario files),
        // whose own error is the whole story.
        try {
            dynamic = makeDynamicSource(args[0], flags.cores);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "trace_tool: %s\n", e.what());
            return 2;
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
                args[0].c_str());
            return 2;
        }
        params.name = args[0];
        params.numCores = flags.cores;
    }

    SyntheticSource synthetic(params);
    AccessSource &source = dynamic ? *dynamic : synthetic;
    const std::unique_ptr<TraceSink> sink =
        makeTraceSink(args[1], !flags.text);
    TraceRecorder recorder(source, *sink);
    for (std::uint64_t i = 0;
         i < flags.accesses && !recorder.exhausted(); ++i)
        recorder.next();
    sink->close();
    std::printf("recorded %llu accesses of '%s' (%zu cores, seed %llu) "
                "to %s [%s]\n",
                static_cast<unsigned long long>(sink->recordsWritten()),
                params.name.c_str(), params.numCores,
                static_cast<unsigned long long>(params.seed),
                args[1].c_str(), flags.text ? "text" : "binary");
    return 0;
}

int
cmdReplay(const std::vector<std::string> &args, const CommonFlags &flags)
{
    CmpConfig config = CmpConfig::paperConfig(
        flags.privateL2 ? CmpConfigKind::PrivateL2
                        : CmpConfigKind::SharedL2,
        flags.cores);
    config.directory.organization = flags.organization;
    if (flags.ways != 0)
        config.directory.ways = static_cast<unsigned>(flags.ways);
    if (flags.sets != 0)
        config.directory.sets = flags.sets;

    const ExperimentOptions &options = flags.experiment;
    const ExperimentResult result = runExperiment(
        config, traceWorkloadParams(args[0]), options);
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
cmdInfo(const std::vector<std::string> &args, const CommonFlags &)
{
    const std::string &path = args[0];
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
cmdConvert(const std::vector<std::string> &args, const CommonFlags &flags)
{
    // Strict: a malformed input record aborts the conversion instead
    // of being silently dropped from a "lossless" re-encode. Errors
    // carry the line number (text dialects) / byte offset (binary).
    const TraceReadOptions read_opts{flags.checkCores, /*strict=*/true};
    std::unique_ptr<AccessSource> reader;
    if (flags.champsim)
        reader = std::make_unique<ChampSimTraceReader>(args[0], read_opts);
    else
        reader = makeTraceReader(args[0], read_opts);
    const std::unique_ptr<TraceSink> sink =
        makeTraceSink(args[1], !flags.text);
    std::uint64_t records = 0;
    while (!reader->exhausted()) {
        sink->write(reader->next());
        ++records;
    }
    sink->close();
    std::printf("converted %llu records: %s -> %s [%s]\n",
                static_cast<unsigned long long>(records), args[0].c_str(),
                args[1].c_str(), flags.text ? "text" : "binary");
    return 0;
}

/** A subcommand: its usage synopsis, positional count and body. */
struct Command
{
    const char *name;
    const char *synopsis;
    std::size_t args;
    int (*run)(const std::vector<std::string> &, const CommonFlags &);
};

const Command kCommands[] = {
    {"record",
     "record <preset> <out> [flags]\n"
     "  Generate a trace. preset: a Table 2 label (DB2, Oracle, Qry2,\n"
     "  Qry16, Qry17, Apache, Zeus, em3d, ocean), 'synthetic', a\n"
     "  'fleet:...' spec, a scenario preset, or a scenario file.\n"
     "  Closed-loop specs (slo-ramp:, scenarios with 'until' triggers)\n"
     "  are rejected: record runs no system to steer on.",
     2, cmdRecord},
    {"replay",
     "replay <trace> [flags]\n"
     "  runExperiment over the trace: warmup (stats discarded), then\n"
     "  measure; a trace shorter than warmup+measure ends early.",
     1, cmdReplay},
    {"info", "info <trace>\n  Format, record count, per-op and per-core "
             "census.",
     1, cmdInfo},
    {"convert",
     "convert <in> <out> [flags]\n"
     "  Lossless re-encode; a malformed input record aborts the\n"
     "  conversion with its line number.",
     2, cmdConvert},
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    const Command *cmd = nullptr;
    for (const Command &c : kCommands)
        if (command == c.name)
            cmd = &c;
    if (cmd == nullptr) {
        std::fprintf(stderr, "trace_tool: %s\n",
                     command.empty()
                         ? "missing subcommand"
                         : ("unknown subcommand '" + command + "'").c_str());
        for (const Command &c : kCommands) {
            CommonFlags unused;
            std::fprintf(stderr, "%s",
                         CliFlags{"trace_tool", c.synopsis,
                                  commandFlags(c.name, unused)}
                             .usage()
                             .c_str());
        }
        return 2;
    }
    CommonFlags flags;
    const CliFlags cli{"trace_tool", cmd->synopsis,
                       commandFlags(command, flags)};
    const std::vector<std::string> args =
        cli.parse(argc - 1, argv + 1, cmd->args);
    if (args.size() < cmd->args)
        cli.fail("missing arguments");
    try {
        return cmd->run(args, flags);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trace_tool: %s\n", e.what());
        return 1;
    }
}
