#include "workload/workload.hh"

#include <cassert>

namespace cdir {

namespace {

/**
 * Region bases in block-address space, 2^33 blocks apart so scattered
 * pages never collide across regions (48-bit physical space, Table 1).
 */
constexpr BlockAddr regionStride = 1ull << 33;
constexpr BlockAddr codeRegion = 1 * regionStride;
constexpr BlockAddr sharedRegion = 2 * regionStride;
constexpr BlockAddr privateRegion = 4 * regionStride;
} // namespace

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params)
    : cfg(params),
      rng(params.seed),
      instructionOdds(params.instructionFraction),
      writeOdds(params.writeFraction),
      sharedOdds(params.sharedDataFraction),
      codeZipf(params.codeBlocks, params.codeTheta),
      sharedZipf(params.sharedBlocks, params.sharedTheta),
      privateZipf(params.privateBlocksPerCore, params.privateTheta)
{
    assert(params.numCores >= 1);
    assert(params.codeBlocks >= 1 && params.sharedBlocks >= 1 &&
           params.privateBlocksPerCore >= 1);
}

BlockAddr
SyntheticWorkload::codeBase() const
{
    return codeRegion;
}

BlockAddr
SyntheticWorkload::sharedBase() const
{
    return sharedRegion;
}

BlockAddr
SyntheticWorkload::privateBase(CoreId core) const
{
    return privateRegion + BlockAddr{core} * regionStride;
}

MemAccess
SyntheticWorkload::next()
{
    MemAccess access;
    access.core = nextCore;
    if (++nextCore == cfg.numCores)
        nextCore = 0;

    if (rng.chance(instructionOdds)) {
        access.instruction = true;
        access.write = false;
        access.addr =
            codeBase() + scatterPages(1, codeZipf.sample(rng));
        return access;
    }

    access.write = rng.chance(writeOdds);
    if (rng.chance(sharedOdds)) {
        access.addr =
            sharedBase() + scatterPages(2, sharedZipf.sample(rng));
    } else {
        // Per-core salt randomizes the high frame bits; the color bits
        // stay aligned across cores because SPMD/server threads
        // allocate mirrored structures at the same virtual offsets
        // (see scatterPages).
        access.addr = privateBase(access.core) +
                      scatterPages(3 + access.core,
                                   privateZipf.sample(rng));
    }
    return access;
}

std::size_t
SyntheticWorkload::distinctBlocks() const
{
    return cfg.codeBlocks + cfg.sharedBlocks +
           cfg.numCores * cfg.privateBlocksPerCore;
}

const std::vector<PaperWorkload> &
allPaperWorkloads()
{
    static const std::vector<PaperWorkload> all = {
        PaperWorkload::OltpDb2,  PaperWorkload::OltpOracle,
        PaperWorkload::DssQry2,  PaperWorkload::DssQry16,
        PaperWorkload::DssQry17, PaperWorkload::WebApache,
        PaperWorkload::WebZeus,  PaperWorkload::SciEm3d,
        PaperWorkload::SciOcean,
    };
    return all;
}

std::string
paperWorkloadName(PaperWorkload workload)
{
    switch (workload) {
      case PaperWorkload::OltpDb2:
        return "DB2";
      case PaperWorkload::OltpOracle:
        return "Oracle";
      case PaperWorkload::DssQry2:
        return "Qry2";
      case PaperWorkload::DssQry16:
        return "Qry16";
      case PaperWorkload::DssQry17:
        return "Qry17";
      case PaperWorkload::WebApache:
        return "Apache";
      case PaperWorkload::WebZeus:
        return "Zeus";
      case PaperWorkload::SciEm3d:
        return "em3d";
      case PaperWorkload::SciOcean:
        return "ocean";
    }
    return "?";
}

bool
paperWorkloadByName(const std::string &name, PaperWorkload &workload)
{
    for (PaperWorkload w : allPaperWorkloads()) {
        if (paperWorkloadName(w) == name) {
            workload = w;
            return true;
        }
    }
    return false;
}

WorkloadParams
paperWorkloadParams(PaperWorkload workload, bool private_l2,
                    std::size_t num_cores)
{
    // Tracked private cache, in blocks: 64KB I + 64KB D L1s for the
    // Shared-L2 configuration, a 1MB unified L2 for Private-L2
    // (Table 1). Footprints below are expressed against this capacity
    // so profiles keep their character for both configurations.
    const std::size_t cap = private_l2 ? 16384 : 1024;

    WorkloadParams p;
    p.name = paperWorkloadName(workload);
    p.numCores = num_cores;
    p.seed = 0x5eed0000 + static_cast<std::uint64_t>(workload) * 977 +
             (private_l2 ? 7 : 0);

    switch (workload) {
      case PaperWorkload::OltpDb2:
        // TPC-C on DB2: hot shared code, large shared buffer pool,
        // modest private heaps; write-heavy transactions.
        p.codeBlocks = 6 * cap;
        p.sharedBlocks = 24 * cap;
        p.privateBlocksPerCore = cap;
        p.instructionFraction = 0.35;
        p.sharedDataFraction = 0.60;
        p.writeFraction = 0.22;
        p.codeTheta = 0.9;
        p.sharedTheta = 0.7;
        p.privateTheta = 0.3;
        break;
      case PaperWorkload::OltpOracle:
        // TPC-C on Oracle: similar profile, slightly bigger SGA and
        // more private working set than DB2.
        p.codeBlocks = 8 * cap;
        p.sharedBlocks = 28 * cap;
        p.privateBlocksPerCore = cap * 5 / 4;
        p.instructionFraction = 0.32;
        p.sharedDataFraction = 0.55;
        p.writeFraction = 0.24;
        p.codeTheta = 0.9;
        p.sharedTheta = 0.7;
        p.privateTheta = 0.3;
        break;
      case PaperWorkload::DssQry2:
        // TPC-H: scan-dominated decision support; large private scan
        // buffers, read-mostly.
        p.codeBlocks = 2 * cap;
        p.sharedBlocks = 12 * cap;
        p.privateBlocksPerCore = 2 * cap;
        p.instructionFraction = 0.18;
        p.sharedDataFraction = 0.25;
        p.writeFraction = 0.08;
        p.codeTheta = 0.8;
        p.sharedTheta = 0.4;
        p.privateTheta = 0.1;
        break;
      case PaperWorkload::DssQry16:
        p.codeBlocks = 2 * cap;
        p.sharedBlocks = 16 * cap;
        p.privateBlocksPerCore = 3 * cap / 2;
        p.instructionFraction = 0.20;
        p.sharedDataFraction = 0.30;
        p.writeFraction = 0.10;
        p.codeTheta = 0.8;
        p.sharedTheta = 0.5;
        p.privateTheta = 0.1;
        break;
      case PaperWorkload::DssQry17:
        p.codeBlocks = 2 * cap;
        p.sharedBlocks = 12 * cap;
        p.privateBlocksPerCore = 2 * cap;
        p.instructionFraction = 0.16;
        p.sharedDataFraction = 0.22;
        p.writeFraction = 0.08;
        p.codeTheta = 0.8;
        p.sharedTheta = 0.4;
        p.privateTheta = 0.05;
        break;
      case PaperWorkload::WebApache:
        // SPECweb99: very hot shared server code, shared file cache,
        // small per-worker private state; read-mostly.
        p.codeBlocks = 5 * cap;
        p.sharedBlocks = 20 * cap;
        p.privateBlocksPerCore = cap / 2;
        p.instructionFraction = 0.40;
        p.sharedDataFraction = 0.65;
        p.writeFraction = 0.12;
        p.codeTheta = 1.0;
        p.sharedTheta = 0.7;
        p.privateTheta = 0.4;
        break;
      case PaperWorkload::WebZeus:
        p.codeBlocks = 4 * cap;
        p.sharedBlocks = 18 * cap;
        p.privateBlocksPerCore = cap / 2;
        p.instructionFraction = 0.42;
        p.sharedDataFraction = 0.70;
        p.writeFraction = 0.10;
        p.codeTheta = 1.0;
        p.sharedTheta = 0.75;
        p.privateTheta = 0.4;
        break;
      case PaperWorkload::SciEm3d:
        // em3d, 15% remote: mostly private graph nodes, a slice of
        // shared neighbours.
        p.codeBlocks = cap / 4;
        p.sharedBlocks = 6 * cap;
        p.privateBlocksPerCore = 2 * cap;
        p.instructionFraction = 0.06;
        p.sharedDataFraction = 0.15;
        p.writeFraction = 0.30;
        p.codeTheta = 0.8;
        p.sharedTheta = 0.0;
        p.privateTheta = 0.0;
        break;
      case PaperWorkload::SciOcean:
        // ocean: grid partitions private per core, nearly 100% unique
        // blocks across all caches (§5.2), boundary exchange only.
        p.codeBlocks = cap / 8;
        p.sharedBlocks = cap;
        p.privateBlocksPerCore = 3 * cap;
        p.instructionFraction = 0.03;
        p.sharedDataFraction = 0.02;
        p.writeFraction = 0.35;
        p.codeTheta = 0.8;
        p.sharedTheta = 0.0;
        p.privateTheta = 0.0;
        break;
    }
    return p;
}

} // namespace cdir
