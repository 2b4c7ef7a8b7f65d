#include "workload/fleet.hh"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "workload/scenario.hh"

namespace cdir {

namespace {

/**
 * Block-address base of the fleet's tenant slots: 2^53 clears every
 * synthetic region ((1..4+core) * 2^33 for core counts up to 2^19) and
 * the scenario burst ring at 2^52, so fleet traffic never aliases any
 * other generator's blocks.
 */
constexpr BlockAddr fleetRegion = BlockAddr{1} << 53;

/** Tenant slot stride; matches the synthetic regions' 2^33 spacing. */
constexpr BlockAddr slotStride = BlockAddr{1} << 33;

/** Slot count bound keeping tenant slots clear of address wrap. */
constexpr std::size_t maxTenants = std::size_t{1} << 19;

/**
 * Accesses before the first event of a knob firing at every positive
 * multiple of @p period; a disabled knob (0) never counts down to it.
 */
std::uint64_t
firstCountdown(std::uint64_t period)
{
    return period != 0 ? period : ~std::uint64_t{0};
}

[[noreturn]] void
fleetFail(const std::string &what)
{
    throw std::invalid_argument("fleet workload: " + what);
}

/**
 * The sampler over footprint knob @p knob's @p n ranks. It rejects a
 * rank count before building its tables; the error names the knob.
 */
ZipfSampler
footprintZipf(const char *knob, std::size_t n, double theta)
{
    try {
        return ZipfSampler(n, theta);
    } catch (const std::invalid_argument &e) {
        fleetFail(std::string(knob) + ": " + e.what());
    }
}

} // namespace

// --- FleetWorkload -----------------------------------------------------------

FleetWorkload::FleetWorkload(const FleetParams &params)
    : cfg(params),
      rng(params.seed ^ 0xf1ee7f1ee7ull),
      writeOdds(params.writeFraction),
      sharedOdds(params.sharedFraction),
      stormOdds(params.stormFraction),
      keyZipf(footprintZipf("blocks per tenant", params.blocksPerTenant,
                            params.theta)),
      sharedZipf(footprintZipf("shared blocks", params.sharedBlocks,
                               params.theta)),
      churnIn(firstCountdown(params.churnEvery)),
      stormIn(firstCountdown(params.stormEvery))
{
    if (cfg.numCores == 0)
        fleetFail("numCores must be >= 1");
    if (cfg.tenants == 0)
        fleetFail("tenants must be >= 1");
    if (cfg.tenants > maxTenants)
        fleetFail("tenants must be <= " + std::to_string(maxTenants));
    if (cfg.theta < 0.0)
        fleetFail("theta must be >= 0");
    if (cfg.writeFraction < 0.0 || cfg.writeFraction > 1.0 ||
        cfg.sharedFraction < 0.0 || cfg.sharedFraction > 1.0 ||
        cfg.stormFraction < 0.0 || cfg.stormFraction > 1.0)
        fleetFail("fractions must be in [0, 1]");
    if (cfg.stormEvery != 0 && cfg.stormLength == 0)
        fleetFail("storm length must be >= 1 when storms are on");
    if (cfg.minActiveTenants == 0 || cfg.minActiveTenants > cfg.tenants)
        fleetFail("min active tenants must be in [1, tenants]");
    generation.assign(cfg.tenants, 0);
}

BlockAddr
FleetWorkload::tenantAddr(std::size_t tenant, std::uint64_t rank) const
{
    // The scatter salt folds in the tenant's churn generation: a
    // redeploy moves the whole footprint to fresh frames (cold start)
    // while staying injective inside the tenant's 2^33-block slot. The
    // generation is spread by an odd multiplier so it lands in the low
    // bits — scatterPages keeps only the low 19 bits of its frame
    // scramble, and a multiply never carries high-bit changes downward.
    const std::uint64_t salt =
        cfg.seed ^ ((tenant + 1) * 0x100000001b3ull) ^
        (std::uint64_t{generation[tenant]} * 0xd1b54a32d192ed03ull);
    return fleetRegion + BlockAddr{tenant} * slotStride +
           scatterPages(salt, rank);
}

void
FleetWorkload::setActiveTenants(std::size_t count)
{
    if (count == 0)
        count = 1;
    if (count > cfg.tenants)
        count = cfg.tenants;
    pinnedActive = count;
}

std::size_t
FleetWorkload::activeTenants() const
{
    if (pinnedActive != 0)
        return pinnedActive;
    if (cfg.diurnalPeriod == 0)
        return cfg.tenants;
    // Integer triangle wave: rises from minActive to tenants over the
    // first half-period, falls back over the second. Pure integer
    // arithmetic — bit-identical on every platform.
    const std::uint64_t period = cfg.diurnalPeriod;
    const std::uint64_t pos = emitted % period;
    const std::uint64_t half = period / 2 != 0 ? period / 2 : 1;
    const std::uint64_t range = cfg.tenants - cfg.minActiveTenants;
    const std::uint64_t rise = pos < half ? pos : period - pos;
    return cfg.minActiveTenants +
           static_cast<std::size_t>(rise * range / half);
}

MemAccess
FleetWorkload::next()
{
    MemAccess access;
    access.core = nextCore;
    if (++nextCore == cfg.numCores)
        nextCore = 0;

    const std::size_t active = activeTenants();
    ++emitted;

    if (churnIn == 0) {
        ++generation[churnCursor];
        churnCursor = (churnCursor + 1) % cfg.tenants;
        ++churns;
        churnIn = cfg.churnEvery;
    }
    --churnIn;
    if (stormIn == 0) {
        stormRemaining = cfg.stormLength;
        stormTenant = static_cast<std::size_t>(storms % cfg.tenants);
        stormKey = 0; // the tenant's hottest key melts down
        ++storms;
        stormIn = cfg.stormEvery;
    }
    --stormIn;

    if (stormRemaining != 0) {
        --stormRemaining;
        if (rng.chance(stormOdds)) {
            access.addr = tenantAddr(stormTenant, stormKey);
            access.write = rng.chance(writeOdds);
            return access;
        }
    }

    if (rng.chance(sharedOdds)) {
        // Shared frontend/runtime code: every tenant executes it, so
        // it lands in a slot of its own past the last tenant.
        access.instruction = true;
        access.addr = fleetRegion + BlockAddr{cfg.tenants} * slotStride +
                      scatterPages(cfg.seed ^ 0x5a5a5a5aull,
                                   sharedZipf.sample(rng));
        return access;
    }

    const std::size_t tenant =
        static_cast<std::size_t>(rng.below(active));
    access.addr = tenantAddr(tenant, keyZipf.sample(rng));
    access.write = rng.chance(writeOdds);
    return access;
}

// --- SloRampWorkload ---------------------------------------------------------

SloRampWorkload::SloRampWorkload(const SloRampParams &params)
    : cfg(params), fleet(params.fleet)
{
    const auto fail = [](const std::string &what) {
        throw std::invalid_argument("slo-ramp: " + what);
    };
    if (cfg.step == 0)
        fail("step must be >= 1 access");
    if (cfg.target <= 0.0)
        fail("target must be > 0");
    top = cfg.maxLevel != 0 ? cfg.maxLevel : cfg.fleet.tenants;
    if (top > cfg.fleet.tenants)
        fail("max level exceeds the fleet's tenant count (" +
             std::to_string(cfg.fleet.tenants) + ")");
    if (cfg.startLevel == 0 || cfg.startLevel > top)
        fail("start level must be in [1, max level]");
    level = cfg.startLevel;
    fleet.setActiveTenants(static_cast<std::size_t>(level));
}

void
SloRampWorkload::attachFeedback(const FeedbackChannel &channel)
{
    feed = &channel;
}

bool
SloRampWorkload::needsTiming() const
{
    return triggerMetricNeedsTiming(cfg.metric);
}

std::uint64_t
SloRampWorkload::feedbackEventCount() const
{
    return log.size();
}

std::uint64_t
SloRampWorkload::feedbackDigest() const
{
    std::uint64_t hash = fnv1aInit();
    for (const RampTransition &t : log) {
        hash = fnv1aMix(hash, t.sequence);
        hash = fnv1aMix(hash, t.accessIndex);
        hash = fnv1aMix(hash, t.level);
        hash = fnv1aMix(hash, t.violation ? 1 : 0);
    }
    return hash;
}

void
SloRampWorkload::evaluate()
{
    if (feed == nullptr || !feed->hasSnapshot())
        return;
    const ProbeSnapshot &snap = feed->latest();
    if (snap.sequence <= evaluatedSequence)
        return;
    evaluatedSequence = snap.sequence;
    if (violated)
        return; // holding at the knee
    if (triggerMetricNeedsTiming(cfg.metric) && !snap.timed)
        return; // driver rejects untimed latency ramps up front

    const double value = triggerMetricValue(snap, cfg.metric);
    if (value > cfg.target) {
        // First violating window: back off to the last sustained level
        // and hold. A knee of 0 means not even startLevel held — the
        // fleet stays where it is (something must keep emitting) and
        // the result reports the cross with kneeLevel 0.
        violated = true;
        crossValue = value;
        if (knee != 0 && knee != level) {
            level = knee;
            fleet.setActiveTenants(static_cast<std::size_t>(level));
        }
        log.push_back(
            RampTransition{snap.sequence, snap.accessIndex, level, true});
        return;
    }

    // Window sustained within SLO: remember it as the knee-so-far and
    // escalate (steady state at the top logs nothing).
    knee = level;
    kneeValue = value;
    if (level < top) {
        ++level;
        fleet.setActiveTenants(static_cast<std::size_t>(level));
        log.push_back(
            RampTransition{snap.sequence, snap.accessIndex, level, false});
    }
}

MemAccess
SloRampWorkload::next()
{
    evaluate();
    return fleet.next();
}

// --- spec grammar ------------------------------------------------------------

std::vector<CliFlag>
fleetKnobs(FleetParams &p)
{
    return {
        countFlag("tenants", p.tenants, 0, "tenant count"),
        countFlag("blocks", p.blocksPerTenant, 0, "key blocks per tenant"),
        realFlag("theta", p.theta, "key popularity skew"),
        realFlag("write", p.writeFraction, "write probability"),
        countFlag("shared", p.sharedBlocks, 0, "shared frontend blocks"),
        realFlag("shared-frac", p.sharedFraction, "frontend probability"),
        countFlag("churn", p.churnEvery, 0, "accesses between redeploys"),
        countFlag("storm", p.stormEvery, 0, "accesses between storms"),
        countFlag("storm-len", p.stormLength, 0, "storm length"),
        realFlag("storm-frac", p.stormFraction, "hot-key probability"),
        countFlag("diurnal", p.diurnalPeriod, 0, "diurnal period"),
        countFlag("min-active", p.minActiveTenants, 0, "diurnal floor"),
        countFlag("seed", p.seed, 0, "generator seed"),
    };
}

std::vector<CliFlag>
sloRampKnobs(SloRampParams &p)
{
    std::vector<CliFlag> knobs = fleetKnobs(p.fleet);
    knobs.insert(knobs.begin(),
                 {triggerMetricFlag(p.metric),
                  realFlag("target", p.target, "SLO target"),
                  countFlag("step", p.step, 0, "accesses per level"),
                  countFlag("start", p.startLevel, 0, "first level"),
                  countFlag("max", p.maxLevel, 0, "top level")});
    return knobs;
}

namespace {

/**
 * Set @p knobs from "<head>:knob=value:..." @p spec.
 * @throws std::invalid_argument "<head> spec: ..." naming the bad knob.
 */
void
setSpecKnobs(const std::string &spec, const std::string &head,
             std::span<const CliFlag> knobs)
{
    const auto fail = [&](const std::string &what) {
        throw std::invalid_argument(head + " spec: " + what);
    };
    const std::vector<std::string_view> tokens = splitList(spec, ':');
    if (tokens.front() != head)
        fail("expected '" + head + "[:knob=value...]', got '" + spec + "'");
    for (const std::string_view token : std::span(tokens).subspan(1)) {
        bool ok = false;
        const CliFlag *knob = setFlag(knobs, token, ok);
        if (knob == nullptr)
            fail("unknown knob '" + std::string(token) + "' (known: " +
                 flagNames(knobs) + ")");
        if (!ok)
            fail("'" + knob->name + "' is not " +
                 (knob->value == "N"   ? "a count"
                  : knob->value == "X" ? "a number"
                                       : "one of " + knob->value) +
                 ": '" +
                 std::string(token.substr(
                     std::min(token.size(), knob->name.size() + 1))) +
                 "'");
    }
}

} // namespace

bool
isFleetSpec(const std::string &spec)
{
    return spec.substr(0, spec.find(':')) == "fleet";
}

bool
isSloRampSpec(const std::string &spec)
{
    return spec.substr(0, spec.find(':')) == "slo-ramp";
}

FleetParams
parseFleetSpec(const std::string &spec, std::size_t num_cores)
{
    FleetParams params;
    params.numCores = num_cores;
    setSpecKnobs(spec, "fleet", fleetKnobs(params));
    return params;
}

SloRampParams
parseSloRampSpec(const std::string &spec, std::size_t num_cores)
{
    SloRampParams params;
    params.fleet.numCores = num_cores;
    setSpecKnobs(spec, "slo-ramp", sloRampKnobs(params));
    return params;
}

std::unique_ptr<AccessSource>
makeDynamicSource(const std::string &spec, std::size_t num_cores)
{
    if (isFleetSpec(spec))
        return std::make_unique<FleetWorkload>(
            parseFleetSpec(spec, num_cores));
    if (isSloRampSpec(spec))
        return std::make_unique<SloRampWorkload>(
            parseSloRampSpec(spec, num_cores));
    return std::make_unique<ScenarioWorkload>(
        resolveScenario(spec, num_cores));
}

WorkloadParams
dynamicWorkloadParams(const std::string &spec)
{
    if (isFleetSpec(spec) || isSloRampSpec(spec)) {
        WorkloadParams params;
        params.name = spec;
        params.scenarioSpec = spec;
        return params;
    }
    return scenarioWorkloadParams(spec);
}

} // namespace cdir
