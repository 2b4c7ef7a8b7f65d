/**
 * @file
 * Synthetic workload generation.
 *
 * The paper evaluates unmodified server and scientific workloads under
 * FLEXUS/Simics (Table 2). Those traces are not redistributable, so this
 * reproduction substitutes parameterized synthetic generators (see
 * DESIGN.md, "Substitutions"): what the directory experiments measure —
 * occupancy, insertion behaviour, conflict rates — depends only on each
 * workload's *block sharing profile*, which the generator controls
 * directly:
 *
 *  - a shared instruction region, touched by every core with identical
 *    popularity skew (server code footprints are heavily shared);
 *  - a shared data region (database buffer pool, web cache) with
 *    configurable read/write mix;
 *  - a per-core private region (scan buffers, private heaps, grid
 *    partitions) sized relative to the private cache.
 *
 * One preset per Table 2 workload captures the paper's qualitative
 * profiles (§5.2): OLTP/Web are dominated by shared instructions and
 * data; DSS queries and em3d have large private footprints with modest
 * sharing; ocean is nearly 100% unique private blocks.
 */

#ifndef CDIR_WORKLOAD_WORKLOAD_HH
#define CDIR_WORKLOAD_WORKLOAD_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workload/zipf.hh"

namespace cdir {

/** One memory reference produced by a core. */
struct MemAccess
{
    CoreId core = 0;
    BlockAddr addr = 0;
    bool write = false;
    bool instruction = false;
};

/**
 * Tunable sharing profile of a synthetic workload — or, when
 * @ref tracePath is set, a recorded trace standing in for the
 * generator (the sweep engine's trace axis).
 */
struct WorkloadParams
{
    std::string name = "synthetic";
    std::size_t numCores = 16;

    /**
     * When non-empty, this workload is a recorded trace: experiment
     * cells replay the file (text or binary, sniffed) instead of
     * constructing a SyntheticWorkload, and every cell opens its own
     * reader so sweeps stay bit-identical at any worker count. The
     * synthetic knobs below are ignored. See traceWorkloadParams().
     */
    std::string tracePath;

    /**
     * When non-empty, this workload is a phased scenario: a preset name
     * or scenario file resolved against the cell's core count, driven
     * through a per-cell ScenarioWorkload (workload/scenario.hh). The
     * synthetic knobs below are ignored; mutually exclusive with
     * @ref tracePath. See scenarioWorkloadParams().
     */
    std::string scenarioSpec;

    /** Shared instruction footprint in blocks (read-only). */
    std::size_t codeBlocks = 4096;
    /** Shared data footprint in blocks. */
    std::size_t sharedBlocks = 32768;
    /** Private footprint per core in blocks. */
    std::size_t privateBlocksPerCore = 8192;

    /** Probability an access is an instruction fetch. */
    double instructionFraction = 0.3;
    /** Probability a data access targets the shared region. */
    double sharedDataFraction = 0.4;
    /** Probability a data access is a write. */
    double writeFraction = 0.2;

    /** Popularity skew of each region (0 = uniform). */
    double codeTheta = 0.8;
    double sharedTheta = 0.6;
    double privateTheta = 0.2;

    std::uint64_t seed = 42;
};

/** Deterministic generator of MemAccess streams (see file comment). */
class SyntheticWorkload
{
  public:
    explicit SyntheticWorkload(const WorkloadParams &params);

    /** Generate the next access (cores round-robin). */
    MemAccess next();

    /** Parameters this generator was built from. */
    const WorkloadParams &params() const { return cfg; }

    /**
     * Distinct block addresses the workload can ever touch; an upper
     * bound on aggregate directory footprint.
     */
    std::size_t distinctBlocks() const;

  private:
    BlockAddr codeBase() const;
    BlockAddr sharedBase() const;
    BlockAddr privateBase(CoreId core) const;

    WorkloadParams cfg;
    Rng rng;
    ChanceThreshold instructionOdds;
    ChanceThreshold writeOdds;
    ChanceThreshold sharedOdds;
    ZipfSampler codeZipf;
    ZipfSampler sharedZipf;
    ZipfSampler privateZipf;
    CoreId nextCore = 0;
};

/** The nine Table 2 workloads. */
enum class PaperWorkload
{
    OltpDb2,
    OltpOracle,
    DssQry2,
    DssQry16,
    DssQry17,
    WebApache,
    WebZeus,
    SciEm3d,
    SciOcean,
};

/** All paper workloads in Table 2 / figure order. */
const std::vector<PaperWorkload> &allPaperWorkloads();

/** Short label used on the figure x-axes ("DB2", "ocean", ...). */
std::string paperWorkloadName(PaperWorkload workload);

/**
 * Reverse lookup of @ref paperWorkloadName (case-sensitive, e.g.
 * "DB2", "ocean"). @return false if @p name is not a Table 2 label.
 */
bool paperWorkloadByName(const std::string &name, PaperWorkload &workload);

/**
 * Sharing-profile preset for a paper workload.
 *
 * @param workload     which Table 2 workload.
 * @param private_l2   true for the Private-L2 configuration (footprints
 *                     scale to the larger tracked cache, §5.2).
 * @param num_cores    CMP size.
 */
WorkloadParams paperWorkloadParams(PaperWorkload workload, bool private_l2,
                                   std::size_t num_cores = 16);

} // namespace cdir

#endif // CDIR_WORKLOAD_WORKLOAD_HH
