/**
 * @file
 * Example: the record/replay pipeline.
 *
 * Records a synthetic workload to disk in both trace formats through a
 * TraceRecorder, replays each file through a fresh CMP, and verifies
 * all three systems agree — the workflow for feeding *external* traces
 * (gem5, champsim, custom pintools) into the directory experiments:
 * convert to `<core> <block-addr-hex> <r|w|i>` lines (or the compact
 * CDTR binary format) and replay with --trace.
 *
 *   $ ./trace_replay [--trace=FILE] [path-prefix] [accesses]
 *
 * With --trace=FILE the recording step is skipped and FILE (either
 * format, sniffed) is replayed instead.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "sim/cmp_system.hh"
#include "workload/trace.hh"

using namespace cdir;

namespace {

/** CMP the example replays into (16-core Shared-L2, Cuckoo 4x512). */
CmpConfig
exampleConfig()
{
    CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
    cfg.directory.organization = "Cuckoo";
    cfg.directory.ways = 4;
    cfg.directory.sets = 512;
    // 64-reference batch windows: directory work runs at access time,
    // but invalidations land at the window's end, so counts can differ
    // slightly from batchWindow = 1 (the exact serial protocol); every
    // system in this example uses the same window, so they stay
    // comparable.
    cfg.batchWindow = 64;
    return cfg;
}

DirectoryStats
replayFile(const CmpConfig &cfg, const std::string &path,
           std::uint64_t limit)
{
    CmpSystem system(cfg);
    const std::unique_ptr<AccessSource> reader = makeTraceReader(
        path, TraceReadOptions{cfg.numCores, /*strict=*/true});
    const std::uint64_t executed = system.run(*reader, limit);
    const DirectoryStats stats = system.aggregateDirectoryStats();
    std::printf("  %-44s %llu accesses, %llu insertions\n", path.c_str(),
                static_cast<unsigned long long>(executed),
                static_cast<unsigned long long>(stats.insertions));
    return stats;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string external;
    std::string prefix = "/tmp/cuckoo_directory_example";
    std::uint64_t accesses = 200000;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace=", 8) == 0)
            external = argv[i] + 8;
        else if (positional++ == 0)
            prefix = argv[i];
        else
            accesses = std::strtoull(argv[i], nullptr, 10);
    }

    const CmpConfig cfg = exampleConfig();
    std::printf("driver: batchWindow=%zu (invalidations deferred to the "
                "window's end; set to 1 for the exact serial driver)\n",
                cfg.batchWindow);

    if (!external.empty()) {
        // Replay an externally recorded trace (either format).
        std::printf("replaying external trace:\n");
        replayFile(cfg, external, ~std::uint64_t{0});
        return 0;
    }

    // 1. Record: a DSS-like workload teed to disk in both formats while
    //    it drives the "live" system.
    const std::string text_path = prefix + ".trace";
    const std::string binary_path = prefix + ".ctr";
    const WorkloadParams params =
        paperWorkloadParams(PaperWorkload::DssQry2, false);
    CmpSystem live(cfg);
    {
        SyntheticSource source(params);
        const std::unique_ptr<TraceSink> text_sink =
            makeTraceSink(text_path, /*binary=*/false);
        const std::unique_ptr<TraceSink> binary_sink =
            makeTraceSink(binary_path, /*binary=*/true);
        // Recorders stack: source -> binary tee -> text tee -> system.
        TraceRecorder binary_tee(source, *binary_sink);
        TraceRecorder text_tee(binary_tee, *text_sink);
        live.run(text_tee, accesses);
        // Explicit close() surfaces buffered write failures (ENOSPC)
        // here, instead of as a baffling replay mismatch below.
        text_sink->close();
        binary_sink->close();
        std::printf("recorded %llu accesses of '%s' to %s and %s\n",
                    static_cast<unsigned long long>(
                        text_sink->recordsWritten()),
                    params.name.c_str(), text_path.c_str(),
                    binary_path.c_str());
    }

    // 2. Replay both files into fresh systems; all stats must agree
    //    with the live run exactly.
    std::printf("replaying:\n");
    const DirectoryStats from_text = replayFile(cfg, text_path, accesses);
    const DirectoryStats from_binary =
        replayFile(cfg, binary_path, accesses);
    const DirectoryStats direct = live.aggregateDirectoryStats();

    const bool identical =
        from_text.insertions == direct.insertions &&
        from_binary.insertions == direct.insertions &&
        from_text.forcedEvictions == direct.forcedEvictions &&
        from_binary.forcedEvictions == direct.forcedEvictions &&
        from_text.hits == direct.hits &&
        from_binary.hits == direct.hits;
    std::printf("live run: %llu insertions -> %s\n",
                static_cast<unsigned long long>(direct.insertions),
                identical ? "all replays identical" : "MISMATCH");
    return identical ? 0 : 1;
}
