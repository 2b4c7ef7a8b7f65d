/**
 * @file
 * Full-system example: the paper's Table 1 CMP running a Table 2
 * workload with a Cuckoo directory.
 *
 * Simulates the 16-core Shared-L2 configuration (split 64KB I/D L1s, 16
 * address-interleaved directory slices, 4x512 Cuckoo slices) executing
 * the OLTP-DB2 sharing profile, then prints a full coherence report:
 * cache behaviour, directory traffic, occupancy, insertion attempts,
 * and invalidations.
 *
 *   $ ./cmp_simulation [workload]  # DB2 Oracle ... ocean
 */

#include <cstdio>
#include <string>

#include "sim/sweep.hh"

using namespace cdir;

int
main(int argc, char **argv)
{
    // Pick a workload preset by name (default: DB2). The example takes
    // no flags, so any "--" argument is rejected.
    const CliFlags flags{"cmp_simulation", "[workload]", {}};
    PaperWorkload chosen = PaperWorkload::OltpDb2;
    for (const std::string &name : flags.parse(argc, argv, 1)) {
        if (!paperWorkloadByName(name, chosen)) {
            std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
            return 1;
        }
    }

    CmpConfig cfg = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
    cfg.directory = cuckooSliceParams(4, 512); // §5.2 selection

    const WorkloadParams workload =
        paperWorkloadParams(chosen, /*private_l2=*/false);

    std::printf("CMP: %zu cores, %u caches/core, %zu-entry Cuckoo "
                "slices x %zu\n",
                cfg.numCores, cfg.cachesPerCore(),
                cfg.directory.totalEntries(), cfg.numSlices);
    std::printf("workload: %s (code %zu blocks, shared %zu, private "
                "%zu/core)\n\n",
                workload.name.c_str(), workload.codeBlocks,
                workload.sharedBlocks, workload.privateBlocksPerCore);

    ExperimentOptions opts;
    opts.warmupAccesses = 1'000'000;
    opts.measureAccesses = 1'000'000;
    const ExperimentResult res = runExperiment(cfg, workload, opts);

    const CmpStats &sys = res.system;
    std::printf("memory accesses : %llu\n",
                static_cast<unsigned long long>(sys.accesses));
    std::printf("L1 hit rate     : %.2f%%\n",
                100.0 * double(sys.cacheHits) / double(sys.accesses));
    std::printf("write upgrades  : %llu\n",
                static_cast<unsigned long long>(sys.writeUpgrades));
    std::printf("\ndirectory (%s, aggregated over %zu slices)\n",
                res.organization.c_str(), cfg.numSlices);
    std::printf("  lookups            : %llu\n",
                static_cast<unsigned long long>(res.directory.lookups));
    std::printf("  entry insertions   : %llu\n",
                static_cast<unsigned long long>(
                    res.directory.insertions));
    std::printf("  avg insert attempts: %.3f\n", res.avgInsertionAttempts);
    std::printf("  occupancy          : %.1f%%\n",
                100.0 * res.avgOccupancy);
    std::printf("  sharing invals     : %llu blocks\n",
                static_cast<unsigned long long>(
                    sys.sharingInvalidations));
    std::printf("  forced invals      : %llu blocks (rate %.5f%% of "
                "insertions)\n",
                static_cast<unsigned long long>(sys.forcedInvalidations),
                100.0 * res.forcedInvalidationRate);
    std::printf("\nattempt histogram (insertions needing k attempts):\n");
    for (std::size_t k = 1; k <= 8; ++k) {
        std::printf("  %zu: %6.2f%%\n", k,
                    100.0 * res.attemptHistogram.fraction(k));
    }
    return 0;
}
