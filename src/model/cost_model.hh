/**
 * @file
 * Pluggable timing/interconnect cost model for directory accesses.
 *
 * The simulator is untimed: CmpSystem counts directory events but
 * assigns them no latency, so the paper's latency-side story — probe
 * depth, cuckoo relocation chains, sharer fan-out across the
 * interconnect, off-chip misses — is invisible. A `CostModel` closes
 * that gap without touching the measure path: it maps each completed
 * `DirAccessOutcome` (plus its request and pooled invalidation/eviction
 * targets) to a latency in cycles, and CmpSystem accumulates the
 * samples into the `LatencyHistogram` inside CmpStats during the
 * outcome-apply phase. Because accounting rides the apply phase — which
 * runs in staging order — latency histograms inherit the
 * repository's bit-identical `--jobs` contract for free, and the
 * `if (model)` guard keeps the unmodelled path exactly as fast as
 * before.
 *
 * Two implementations ship:
 *
 *  - `FixedLatencyCostModel` — a distance-blind baseline: flat costs
 *    for the directory probe, hit forwarding, off-chip fills,
 *    invalidation round trips, and per-relocation cuckoo writes.
 *  - `MeshCostModel` — a 2D-mesh NoC parameterised by `CmpConfig`: one
 *    tile per core (width = ceil(sqrt(cores))), directory slices
 *    interleaved across tiles, Manhattan hop counts on the
 *    request/response paths, and invalidation latency set by the
 *    *farthest* sharer (the critical path of the multicast), so
 *    fan-out and placement shape the tail.
 *
 * Latency semantics per outcome, shared by both models:
 *
 *  - every access pays the directory probe;
 *  - a cuckoo insertion chain pays (attempts - 1) relocations;
 *  - a directory hit is serviced on chip (forward / upgrade ack);
 *    a miss (insertion) goes off chip;
 *  - a write hit pays the sharer-invalidation round trip (mesh: to the
 *    farthest invalidated sharer);
 *  - each forced eviction pays an invalidation round trip to its
 *    targets before the displaced entry's frame is reusable.
 */

#ifndef CDIR_MODEL_COST_MODEL_HH
#define CDIR_MODEL_COST_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "directory/access_context.hh"

namespace cdir {

struct CmpConfig;

/** Cycle costs shared by the cost models (defaults are plausible
 *  relative magnitudes, not calibrated silicon numbers). */
struct CostModelParams
{
    std::uint64_t directoryCycles = 4;    //!< probe/update at the home slice
    std::uint64_t relocationCycles = 6;   //!< one cuckoo relocation write
    std::uint64_t forwardCycles = 12;     //!< hit service (forward/ack)
    std::uint64_t invalidationCycles = 10; //!< invalidation round trip
    std::uint64_t offChipCycles = 200;    //!< memory fill on a miss
    std::uint64_t hopCycles = 3;          //!< per mesh hop (mesh model)
};

/** Maps one directory access outcome to a latency in cycles. */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** Model name as accepted by makeCostModel(). */
    virtual const std::string &name() const = 0;

    /**
     * Latency in cycles of the access that produced @p outcome at
     * directory slice @p slice. @p ctx is the context the outcome was
     * recorded into (invalidation/eviction target bitsets). Must be
     * pure (no state): it is called from the serial apply phase for
     * every outcome, in canonical order.
     */
    virtual std::uint64_t accessLatency(const DirRequest &request,
                                        const DirAccessOutcome &outcome,
                                        const DirAccessContext &ctx,
                                        std::size_t slice) const = 0;
};

/** Distance-blind baseline: flat per-event costs. */
class FixedLatencyCostModel : public CostModel
{
  public:
    explicit FixedLatencyCostModel(CostModelParams params = {});

    const std::string &name() const override;
    std::uint64_t accessLatency(const DirRequest &request,
                                const DirAccessOutcome &outcome,
                                const DirAccessContext &ctx,
                                std::size_t slice) const override;

  private:
    CostModelParams p;
};

/** 2D-mesh NoC model parameterised by the CMP configuration (see file
 *  comment). */
class MeshCostModel : public CostModel
{
  public:
    /** @throws std::invalid_argument if @p config has zero cores. */
    explicit MeshCostModel(const CmpConfig &config,
                           CostModelParams params = {});

    const std::string &name() const override;
    std::uint64_t accessLatency(const DirRequest &request,
                                const DirAccessOutcome &outcome,
                                const DirAccessContext &ctx,
                                std::size_t slice) const override;

    /** Mesh side length (tiles per row). */
    std::size_t meshWidth() const { return width; }

    /** Manhattan hop count between tiles @p a and @p b. */
    std::uint64_t hops(std::size_t a, std::size_t b) const;

    /** Tile holding directory slice @p slice (address interleaving
     *  wraps slices onto the cores' tiles). */
    std::size_t tileOfSlice(std::size_t slice) const
    {
        return slice % tiles;
    }

    /** Tile of the core owning cache @p cache. */
    std::size_t tileOfCache(CacheId cache) const
    {
        return static_cast<std::size_t>(cache) / cachesPerCore;
    }

  private:
    /** Farthest-target hop count from @p home (requester excluded). */
    std::uint64_t farthestTarget(const DynamicBitset &targets,
                                 std::size_t home,
                                 CacheId requester, bool &any) const;

    CostModelParams p;
    std::size_t tiles = 0;         //!< one per core
    std::size_t width = 0;         //!< mesh side length
    unsigned cachesPerCore = 1;
};

/** Names makeCostModel() accepts, in stable order. */
const std::vector<std::string> &costModelNames();

/** True iff @p name is a known cost model. */
bool isCostModelName(const std::string &name);

/**
 * Construct the cost model @p name ("fixed" or "mesh") for systems
 * configured as @p config.
 * @throws std::invalid_argument for an unknown name.
 */
std::unique_ptr<CostModel> makeCostModel(const std::string &name,
                                         const CmpConfig &config,
                                         const CostModelParams &params = {});

} // namespace cdir

#endif // CDIR_MODEL_COST_MODEL_HH
