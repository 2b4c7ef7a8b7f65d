/**
 * @file
 * Multi-tenant server-fleet workload and SLO-ramp controller.
 *
 * The paper's Table 2 workloads model one application owning the whole
 * CMP. A consolidation fleet looks different: N tenants, each with its
 * own Zipf-skewed key footprint, time-share every core; tenants churn
 * (a redeploy cold-starts a tenant's footprint), suffer hot-key storms
 * (one key of one tenant briefly dominates the mix), and wax and wane
 * on a diurnal curve (a triangle wave over active-tenant count — no
 * libm trig, so the wave is bit-identical across platforms). All
 * randomness draws from one seeded Xoshiro stream, so the emitted
 * access sequence is a pure function of FleetParams.
 *
 * On top of the fleet sits the closed-loop SLO-ramp controller
 * (SloRampWorkload): a FeedbackConsumer that steps offered load — the
 * number of active tenants — one level at a time, holding each level
 * for one probe window. While the windowed SLO metric (p99 by default)
 * stays within target, the ramp escalates; the first violating window
 * backs the fleet off one level and holds. The *knee* — the last level
 * sustained within SLO — is the figure of merit bench/ext_slo_knee.cc
 * compares across directory organizations.
 *
 * Both sources ride the sweep/campaign stack through
 * WorkloadParams::scenarioSpec, using a colon-separated spec grammar
 * ("fleet:tenants=8:churn=250000", "slo-ramp:target=150:step=20000")
 * that survives the comma-splitting of `--scenario=` lists. The
 * makeDynamicSource() dispatcher below resolves any spec — fleet,
 * slo-ramp, or classic scenario — into an AccessSource.
 */

#ifndef CDIR_WORKLOAD_FLEET_HH
#define CDIR_WORKLOAD_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cli_flag.hh"
#include "common/rng.hh"
#include "workload/feedback.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"
#include "workload/zipf.hh"

namespace cdir {

/** Knobs of the fleet generator; every field has a sensible default. */
struct FleetParams
{
    std::size_t numCores = 16;
    /** Tenant count (the ceiling on active tenants). */
    std::size_t tenants = 8;
    /** Per-tenant key footprint in blocks. */
    std::size_t blocksPerTenant = 16384;
    /** Popularity skew of each tenant's keys. */
    double theta = 0.9;
    /** Probability a tenant data access is a write. */
    double writeFraction = 0.15;

    /** Shared frontend/code footprint every tenant touches. */
    std::size_t sharedBlocks = 4096;
    /** Probability an access hits the shared frontend (as ifetch). */
    double sharedFraction = 0.05;

    /** Accesses between churn events (0 = off). Each event redeploys
     *  one tenant round-robin: its scatter salt changes generation, so
     *  the footprint cold-starts at fresh addresses. */
    std::uint64_t churnEvery = 0;
    /** Accesses between hot-key storm onsets (0 = off). */
    std::uint64_t stormEvery = 0;
    /** Storm duration in accesses. */
    std::uint64_t stormLength = 20'000;
    /** During a storm, probability an access targets the hot key. */
    double stormFraction = 0.5;

    /** Diurnal period in accesses (0 = off): active-tenant count rides
     *  a triangle wave between minActiveTenants and tenants. */
    std::uint64_t diurnalPeriod = 0;
    std::size_t minActiveTenants = 1;

    std::uint64_t seed = 42;
};

/** Deterministic multi-tenant fleet generator (see file comment). */
class FleetWorkload : public AccessSource
{
  public:
    /** @throws std::invalid_argument for out-of-range knobs. */
    explicit FleetWorkload(const FleetParams &params);

    MemAccess next() override;
    bool exhausted() const override { return false; }

    const FleetParams &params() const { return cfg; }

    /**
     * Pin the active-tenant count (clamped to [1, tenants]); the
     * SLO-ramp controller's load lever. Overrides the diurnal wave
     * until the next call.
     */
    void setActiveTenants(std::size_t count);

    /** Active tenants the next access will draw from. */
    std::size_t activeTenants() const;

    /** Churn events applied so far. */
    std::uint64_t churnEvents() const { return churns; }

    /** Storm onsets so far. */
    std::uint64_t stormOnsets() const { return storms; }

  private:
    BlockAddr tenantAddr(std::size_t tenant, std::uint64_t rank) const;

    FleetParams cfg;
    Rng rng;
    ChanceThreshold writeOdds;
    ChanceThreshold sharedOdds;
    ChanceThreshold stormOdds;
    ZipfSampler keyZipf;
    ZipfSampler sharedZipf;
    /** Accesses until the next churn / storm onset. */
    std::uint64_t churnIn;
    std::uint64_t stormIn;
    std::vector<std::uint32_t> generation; //!< per-tenant churn epoch
    CoreId nextCore = 0;
    std::uint64_t emitted = 0;
    std::uint64_t churns = 0;
    std::size_t churnCursor = 0;
    std::uint64_t storms = 0;
    std::uint64_t stormRemaining = 0;
    std::size_t stormTenant = 0;
    std::uint64_t stormKey = 0;
    std::size_t pinnedActive = 0; //!< 0 = follow the diurnal wave
};

/** Knobs of the SLO-ramp controller. */
struct SloRampParams
{
    /** The underlying fleet (tenants = the top ramp level). */
    FleetParams fleet;
    /** Windowed SLO metric the ramp watches. */
    TriggerMetric metric = TriggerMetric::P99;
    /** SLO target: a window whose metric exceeds this violates. */
    double target = 150.0;
    /** Accesses per ramp step == the probe interval, so each snapshot
     *  window measures exactly one load level. */
    std::uint64_t step = 20'000;
    /** First load level (active tenants). */
    std::size_t startLevel = 1;
    /** Ceiling (0 = fleet.tenants). */
    std::size_t maxLevel = 0;
};

/**
 * One level-change decision of the ramp, logged for the feedback
 * digest and for tests asserting identical decision points.
 */
struct RampTransition
{
    std::uint64_t sequence = 0;    //!< snapshot that triggered it
    std::uint64_t accessIndex = 0; //!< probe position of that snapshot
    std::uint64_t level = 0;       //!< level in force *after* it
    bool violation = false;        //!< true for the back-off transition
};

/**
 * Closed-loop load ramp over a FleetWorkload (see file comment).
 * Escalates one level per in-SLO window, backs off and holds on the
 * first violation. The knee (last sustained level) and the metric
 * values around it surface through ExperimentResult.
 */
class SloRampWorkload : public AccessSource, public FeedbackConsumer
{
  public:
    /** @throws std::invalid_argument for out-of-range knobs. */
    explicit SloRampWorkload(const SloRampParams &params);

    MemAccess next() override;
    bool exhausted() const override { return false; }

    // FeedbackConsumer
    bool wantsFeedback() const override { return true; }
    std::uint64_t probeInterval() const override { return cfg.step; }
    void attachFeedback(const FeedbackChannel &channel) override;
    bool needsTiming() const override;
    std::uint64_t feedbackEventCount() const override;
    std::uint64_t feedbackDigest() const override;

    const SloRampParams &params() const { return cfg; }

    /** Level in force right now. */
    std::uint64_t currentLevel() const { return level; }

    /** True once a window violated the target. */
    bool crossed() const { return violated; }

    /** Last level sustained within SLO (0 = not even startLevel). */
    std::uint64_t kneeLevel() const { return knee; }

    /** Metric value of the last sustained window (0 until one). */
    double kneeMetric() const { return kneeValue; }

    /** Metric value of the violating window (0 until crossed). */
    double crossMetric() const { return crossValue; }

    /** Every level decision taken, in order. */
    const std::vector<RampTransition> &transitions() const
    {
        return log;
    }

  private:
    void evaluate();

    SloRampParams cfg;
    FleetWorkload fleet;
    const FeedbackChannel *feed = nullptr;
    std::uint64_t evaluatedSequence = 0;
    std::uint64_t level = 0;
    std::uint64_t top = 0;
    bool violated = false;
    std::uint64_t knee = 0;
    double kneeValue = 0.0;
    double crossValue = 0.0;
    std::vector<RampTransition> log;
};

// --- spec grammar ------------------------------------------------------------

/** True iff @p spec is a fleet spec ("fleet" or "fleet:..."). */
bool isFleetSpec(const std::string &spec);

/** True iff @p spec is an SLO-ramp spec ("slo-ramp" or "slo-ramp:..."). */
bool isSloRampSpec(const std::string &spec);

/**
 * The `fleet:` knobs, declared once and bound to @p params' fields:
 * tenants, blocks, theta, write, shared, shared-frac, churn, storm,
 * storm-len, storm-frac, diurnal, min-active, seed (counts and finite
 * reals; ranges are checked by FleetWorkload).
 */
std::vector<CliFlag> fleetKnobs(FleetParams &params);

/**
 * The `slo-ramp:` knobs bound to @p params: metric (a trigger metric
 * name), target, step, start, max, then every fleetKnobs() knob bound
 * to params.fleet.
 */
std::vector<CliFlag> sloRampKnobs(SloRampParams &params);

/**
 * Parse "fleet:tenants=8:churn=250000:..." through fleetKnobs() (every
 * knob optional, any order, a later one wins). @p num_cores binds
 * FleetParams::numCores.
 * @throws std::invalid_argument "fleet spec: ..." naming the bad knob.
 */
FleetParams parseFleetSpec(const std::string &spec, std::size_t num_cores);

/**
 * Parse "slo-ramp:metric=p99:target=150:tenants=8:..." through
 * sloRampKnobs().
 * @throws std::invalid_argument "slo-ramp spec: ..." naming the bad
 * knob.
 */
SloRampParams parseSloRampSpec(const std::string &spec,
                               std::size_t num_cores);

/**
 * Resolve any dynamic-workload spec — "fleet:...", "slo-ramp:...", a
 * scenario preset name, or a scenario file path — into a fresh source
 * for a @p num_cores CMP. Every experiment cell calls this to get its
 * own private instance, preserving sweep bit-identity at any worker
 * count.
 */
std::unique_ptr<AccessSource> makeDynamicSource(const std::string &spec,
                                                std::size_t num_cores);

/**
 * WorkloadParams naming @p spec as a dynamic source: fleet and
 * slo-ramp specs label cells with the spec text itself; everything
 * else defers to scenarioWorkloadParams.
 */
WorkloadParams dynamicWorkloadParams(const std::string &spec);

} // namespace cdir

#endif // CDIR_WORKLOAD_FLEET_HH
