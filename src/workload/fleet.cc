#include "workload/fleet.hh"

#include <cstdlib>
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

/** 8KB pages of 64B blocks, 128 page colors — the same Solaris-style
 *  page-coloring structure as workload.cc's scatterPages, replicated
 *  here so fleet footprints stress the directories the same way the
 *  Table 2 generators do. */
constexpr std::uint64_t pageBlocks = 128;
constexpr std::uint64_t pageColors = 128;

BlockAddr
scatterFleetPages(std::uint64_t salt, std::uint64_t rank)
{
    const std::uint64_t page = rank / pageBlocks;
    const std::uint64_t offset = rank % pageBlocks;
    const std::uint64_t color = page % pageColors;
    const std::uint64_t group = page / pageColors;
    const std::uint64_t frame_high =
        ((group * 0x6364136223846793ull) ^
         (salt * 0x9e3779b97f4a7c15ull)) &
        ((1ull << 19) - 1);
    const std::uint64_t frame = frame_high * pageColors + color;
    return frame * pageBlocks + offset;
}

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

} // namespace

// --- FleetWorkload -----------------------------------------------------------

FleetWorkload::FleetWorkload(const FleetParams &params)
    : cfg(params),
      rng(params.seed ^ 0xf1ee7f1ee7ull),
      writeOdds(params.writeFraction),
      sharedOdds(params.sharedFraction),
      stormOdds(params.stormFraction),
      keyZipf(params.blocksPerTenant >= 1 ? params.blocksPerTenant : 1,
              params.theta),
      sharedZipf(params.sharedBlocks >= 1 ? params.sharedBlocks : 1,
                 params.theta),
      churnIn(firstCountdown(params.churnEvery)),
      stormIn(firstCountdown(params.stormEvery))
{
    if (cfg.numCores == 0)
        fleetFail("numCores must be >= 1");
    if (cfg.tenants == 0)
        fleetFail("tenants must be >= 1");
    if (cfg.tenants > maxTenants)
        fleetFail("tenants must be <= " + std::to_string(maxTenants));
    if (cfg.blocksPerTenant == 0)
        fleetFail("blocks per tenant must be >= 1");
    if (cfg.sharedBlocks == 0)
        fleetFail("shared blocks must be >= 1");
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
    // bits — scatterFleetPages keeps only the low 19 bits of its frame
    // scramble, and a multiply never carries high-bit changes downward.
    const std::uint64_t salt =
        cfg.seed ^ ((tenant + 1) * 0x100000001b3ull) ^
        (std::uint64_t{generation[tenant]} * 0xd1b54a32d192ed03ull);
    return fleetRegion + BlockAddr{tenant} * slotStride +
           scatterFleetPages(salt, rank);
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
                      scatterFleetPages(cfg.seed ^ 0x5a5a5a5aull,
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

namespace {

[[noreturn]] void
specFail(const std::string &head, const std::string &what)
{
    throw std::invalid_argument(head + " spec: " + what);
}

std::vector<std::string>
splitSpecTokens(const std::string &spec)
{
    std::vector<std::string> tokens;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t colon = spec.find(':', start);
        const std::size_t end =
            colon == std::string::npos ? spec.size() : colon;
        tokens.push_back(spec.substr(start, end - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }
    return tokens;
}

std::uint64_t
parseSpecCount(const std::string &head, const std::string &key,
               const std::string &value)
{
    if (value.empty())
        specFail(head, "'" + key + "' needs a value");
    const std::optional<std::uint64_t> parsed =
        parseCliUnsigned(value);
    if (!parsed)
        specFail(head, "'" + key + "' is not a count: '" + value + "'");
    return *parsed;
}

double
parseSpecReal(const std::string &head, const std::string &key,
              const std::string &value)
{
    if (value.empty())
        specFail(head, "'" + key + "' needs a value");
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0')
        specFail(head, "'" + key + "' is not a number: '" + value + "'");
    return parsed;
}

/** Apply one fleet knob; @return false if @p key is not a fleet knob. */
bool
applyFleetKnob(FleetParams &params, const std::string &head,
               const std::string &key, const std::string &value)
{
    if (key == "tenants")
        params.tenants = parseSpecCount(head, key, value);
    else if (key == "blocks")
        params.blocksPerTenant = parseSpecCount(head, key, value);
    else if (key == "theta")
        params.theta = parseSpecReal(head, key, value);
    else if (key == "write")
        params.writeFraction = parseSpecReal(head, key, value);
    else if (key == "shared")
        params.sharedBlocks = parseSpecCount(head, key, value);
    else if (key == "shared-frac")
        params.sharedFraction = parseSpecReal(head, key, value);
    else if (key == "churn")
        params.churnEvery = parseSpecCount(head, key, value);
    else if (key == "storm")
        params.stormEvery = parseSpecCount(head, key, value);
    else if (key == "storm-len")
        params.stormLength = parseSpecCount(head, key, value);
    else if (key == "storm-frac")
        params.stormFraction = parseSpecReal(head, key, value);
    else if (key == "diurnal")
        params.diurnalPeriod = parseSpecCount(head, key, value);
    else if (key == "min-active")
        params.minActiveTenants = parseSpecCount(head, key, value);
    else if (key == "seed")
        params.seed = parseSpecCount(head, key, value);
    else
        return false;
    return true;
}

bool
specHead(const std::string &spec, const std::string &head)
{
    return spec == head ||
           (spec.size() > head.size() && spec[head.size()] == ':' &&
            spec.compare(0, head.size(), head) == 0);
}

} // namespace

bool
isFleetSpec(const std::string &spec)
{
    return specHead(spec, "fleet");
}

bool
isSloRampSpec(const std::string &spec)
{
    return specHead(spec, "slo-ramp");
}

FleetParams
parseFleetSpec(const std::string &spec, std::size_t num_cores)
{
    if (!isFleetSpec(spec))
        specFail("fleet", "expected 'fleet[:knob=value...]', got '" +
                              spec + "'");
    FleetParams params;
    params.numCores = num_cores;
    const std::vector<std::string> tokens = splitSpecTokens(spec);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            specFail("fleet", "knob '" + token + "' is not key=value");
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (!applyFleetKnob(params, "fleet", key, value))
            specFail("fleet", "unknown knob '" + key + "'");
    }
    return params;
}

SloRampParams
parseSloRampSpec(const std::string &spec, std::size_t num_cores)
{
    if (!isSloRampSpec(spec))
        specFail("slo-ramp",
                 "expected 'slo-ramp[:knob=value...]', got '" + spec +
                     "'");
    SloRampParams params;
    params.fleet.numCores = num_cores;
    const std::vector<std::string> tokens = splitSpecTokens(spec);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            specFail("slo-ramp", "knob '" + token + "' is not key=value");
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "metric") {
            if (!triggerMetricByName(value, params.metric))
                specFail("slo-ramp", "unknown metric '" + value + "'");
        } else if (key == "target") {
            params.target = parseSpecReal("slo-ramp", key, value);
        } else if (key == "step") {
            params.step = parseSpecCount("slo-ramp", key, value);
        } else if (key == "start") {
            params.startLevel = parseSpecCount("slo-ramp", key, value);
        } else if (key == "max") {
            params.maxLevel = parseSpecCount("slo-ramp", key, value);
        } else if (!applyFleetKnob(params.fleet, "slo-ramp", key,
                                   value)) {
            specFail("slo-ramp", "unknown knob '" + key + "'");
        }
    }
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
