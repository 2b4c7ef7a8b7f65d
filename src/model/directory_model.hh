/**
 * @file
 * Analytical per-core energy/area model of every directory organization
 * in Figs. 4 and 13.
 *
 * For each organization the model derives, from the system geometry,
 * the bits read and written by each directory operation type and the
 * storage bits per slice; operation energies are weighted by the event
 * mix the paper measured across its workload suite (footnote 1) and
 * normalized to the Fig. 4/13 reference structures (see sram.hh).
 *
 * The figures plot *per-core* values: one directory slice per core, so
 * aggregate chip cost is the per-core value times the core count — a
 * per-core value that grows linearly with core count (Duplicate-Tag,
 * Tagless energy; full-vector area) means quadratic aggregate growth.
 */

#ifndef CDIR_MODEL_DIRECTORY_MODEL_HH
#define CDIR_MODEL_DIRECTORY_MODEL_HH

#include <string>

#include "model/sram.hh"

namespace cdir {

/** Organizations plotted in Figs. 4 and 13. */
enum class OrgModel
{
    DuplicateTag,  //!< §3.1: mirrored tags, C x assoc wide lookups
    Tagless,       //!< [43]: Bloom-filter grid, C-wide column reads
    SparseFull,    //!< §3.2: set-assoc, full bit vector, over-provisioned
    InCache,       //!< §3.2: vectors on every shared-L2 tag
    SparseCoarse,  //!< §3.3: limited pointers + coarse fallback [17,24]
    SparseHier,    //!< §3.3: two-level vectors [44,45]
    CuckooFull,    //!< §4 organization, full vector entries
    CuckooCoarse,  //!< §4 organization, coarse entries (Fig. 13)
    CuckooHier,    //!< §4 organization, hierarchical entries (Fig. 13)
};

/** Geometry the model needs (defaults: Table 1 Shared-L2 at 16 cores). */
struct DirSystemParams
{
    std::size_t numCores = 16;
    unsigned cachesPerCore = 2;      //!< I+D L1s (Shared), 1 (Private)
    std::size_t framesPerCache = 1024; //!< 64KB L1 = 1024 blocks
    unsigned cacheAssoc = 2;

    double sparseProvisioning = 8.0; //!< Sparse* capacity factor
    unsigned sparseWays = 8;
    double cuckooProvisioning = 1.0; //!< 1x Shared / 1.5x Private (§5.2)
    unsigned cuckooWays = 4;
    /** Measured average insertion attempts (extra displacement writes). */
    double cuckooAvgAttempts = 1.3;

    /** Bits per Bloom-filter row; 0 = auto (8 x cacheAssoc, sized to
     *  the mirrored set as in [43]). */
    std::size_t taglessBucketBits = 0;
    unsigned taglessGrids = 2;
    std::size_t l2FramesPerCore = 16384; //!< 1MB shared L2 per tile

    unsigned physAddrBits = 48;
    unsigned blockOffsetBits = 6;

    SramTech tech{};

    /** Total private caches. */
    std::size_t numCaches() const { return numCores * cachesPerCore; }
    /** Tracked frames per slice (one slice per core). */
    double
    framesPerSlice() const
    {
        return double(numCaches()) * double(framesPerCache) /
               double(numCores);
    }
    /** Block-address bits. */
    unsigned blockAddrBits() const
    {
        return physAddrBits - blockOffsetBits;
    }
};

/** Directory operation mix measured by the paper (footnote 1). */
struct EventMix
{
    double insert = 0.235;
    double addSharer = 0.269;
    double removeSharer = 0.249;
    double removeTag = 0.235;
    double invalidateAll = 0.012;
};

/** Per-core cost of one organization. */
struct DirCost
{
    double energyPerOp = 0.0;     //!< bit-read units per directory op
    double energyRelative = 0.0;  //!< / l2TagLookupEnergy (Fig. axis)
    double areaBitsPerCore = 0.0; //!< storage bits per slice
    double areaRelative = 0.0;    //!< / l2DataAreaBits (Fig. axis)
};

/** Evaluate the model (see file comment). */
DirCost directoryCost(OrgModel org, const DirSystemParams &params,
                      const EventMix &mix = {});

/**
 * Sharer-field width (bits per entry) the model charges @p org at
 * @p num_caches tracked caches — the analytical counterpart of the
 * simulator's sharerStorageBits() (sharers/sharer_set.hh), exported so
 * the Fig. 4 harness can cross-check the two formulas at every grid
 * point. 0 for organizations without a per-entry vector field.
 */
double modelSharerFieldBits(OrgModel org, std::size_t num_caches);

/** Display name used in the figure legends. */
std::string orgModelName(OrgModel org);

} // namespace cdir

#endif // CDIR_MODEL_DIRECTORY_MODEL_HH
