/**
 * @file
 * End-to-end simulation throughput: accesses/second of the full
 * warmup-then-measure pipeline, emitted as JSON for the perf-trajectory
 * record (tools/perf_trajectory.sh -> BENCH_<n>.json).
 *
 * The google-benchmark microbenchmarks (micro_directory_ops) time
 * directory operations in isolation; this binary times what a figure
 * harness actually pays — stage/flush batching, the apply phase, cache
 * maintenance, statistics — so a regression anywhere in the pipeline
 * shows up even when every micro number is flat. Three runs:
 *
 *  - Cuckoo, untimed: the repository's headline path;
 *  - Sparse, untimed: a conventional-organization baseline;
 *  - Cuckoo + mesh cost model: the same run timed, so the trajectory
 *    tracks the cost-model overhead (expected small: one virtual call
 *    and a histogram add per directory outcome, only when enabled);
 *  - Cuckoo + batch64: the batched-staging driver shape;
 *  - Cuckoo + fleet generator: the multi-tenant workload's
 *    generator-side cost (Zipf draws, per-tenant scatter, churn).
 *
 * Wall-clock throughput is machine-dependent by nature; the trajectory
 * compares like with like across commits on the same runner. Results
 * (counters, histograms) remain bit-identical regardless — timing
 * never feeds back into the simulation.
 *
 *   $ ./end_to_end_rate                 # JSON on stdout
 *   $ ./end_to_end_rate --accesses=500000
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim_common.hh"
#include "workload/fleet.hh"

using namespace cdir;
using namespace cdir::bench;

namespace {

struct RateRun
{
    const char *name;
    const char *organization;
    const char *costModel;        //!< "" = untimed
    std::size_t batchWindow = 1;  //!< CmpConfig::batchWindow
    const char *scenario = nullptr; //!< dynamic workload spec; null = DB2
};

constexpr RateRun kRuns[] = {
    {"Cuckoo/untimed", "Cuckoo", ""},
    {"Sparse/untimed", "Sparse", ""},
    {"Cuckoo/mesh", "Cuckoo", "mesh"},
    // Batched staging leg: batchWindow >> 1 is the driver shape that
    // exercises the batch-window software prefetch (CDIR_PREFETCH_DIST)
    // and per-slice run batching — at window 1 that machinery is idle,
    // so regressions in it were invisible to the committed numbers.
    {"Cuckoo/batch64", "Cuckoo", "", 64},
    // Fleet-generator leg: the multi-tenant workload pays for Zipf
    // sampling, per-tenant scatter, and churn/storm bookkeeping per
    // access — a different generator-side profile than the Table 2
    // synthetics, so generator regressions show up here first.
    {"Cuckoo/fleet", "Cuckoo", "", 1,
     "fleet:tenants=16:blocks=8192:churn=200000:storm=500000"},
};

DirectoryParams
organizationParams(const std::string &name)
{
    if (name == "Cuckoo")
        return cuckooSliceParams(4, 512);
    if (name == "Sparse")
        return sparseSliceParams(8, 512);
    DirectoryParams params;
    params.organization = name;
    return params;
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions cli = parseHarnessOptions(argc, argv);
    warnFlagUnused(cli, {"filter", "trace", "scenario", "cost-model",
                         "probe-every"});

    std::uint64_t accesses = 1'000'000;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = cliFlagValue(argv[i], "accesses")) {
            char *end = nullptr;
            accesses = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0' || accesses == 0) {
                std::fprintf(stderr,
                             "end_to_end_rate: bad --accesses value "
                             "'%s'\n",
                             v);
                return 2;
            }
        }
    }
    accesses *= cli.scale;

    std::printf("{\"benchmark\": \"end_to_end_rate\", "
                "\"accesses\": %llu, \"runs\": [",
                static_cast<unsigned long long>(accesses));
    bool first = true;
    for (const RateRun &run : kRuns) {
        CmpConfig config = paperConfigWith(
            CmpConfigKind::SharedL2, organizationParams(run.organization));
        config.batchWindow = run.batchWindow;
        WorkloadParams workload =
            run.scenario != nullptr
                ? dynamicWorkloadParams(run.scenario)
                : paperWorkloadParams(PaperWorkload::OltpDb2, false,
                                      config.numCores);

        ExperimentOptions opts;
        opts.warmupAccesses = accesses / 4;
        opts.measureAccesses = accesses;
        opts.occupancySampleEvery = 10'000;
        opts.costModel = run.costModel;

        const auto start = std::chrono::steady_clock::now();
        const ExperimentResult result =
            runExperiment(config, workload, opts);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;

        const double total =
            double(opts.warmupAccesses) + double(result.system.accesses);
        const double rate =
            elapsed.count() > 0.0 ? total / elapsed.count() : 0.0;
        std::printf("%s\n  {\"name\": \"%s\", \"seconds\": %.6f, "
                    "\"accesses_per_sec\": %.1f}",
                    first ? "" : ",", run.name, elapsed.count(), rate);
        first = false;
    }
    std::printf("\n]}\n");
    return 0;
}
