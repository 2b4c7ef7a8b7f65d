#include "workload/scenario.hh"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>

namespace cdir {

namespace {

/**
 * Block-address base of the producer-consumer ring, far above every
 * synthetic region (regions sit at (1..4+core) * 2^33; 2^52 clears a
 * 2^19-core CMP) so burst traffic never aliases the base stream.
 */
constexpr BlockAddr burstRegion = BlockAddr{1} << 52;

/** Directive names, indexed by ScenarioEvent::Kind. */
constexpr const char *kEventNames[] = {"migrate", "offline", "online"};

/** Apply @p event to a thread-to-core map and an online set. */
void
applyEvent(const ScenarioEvent &event, std::vector<CoreId> &thread_to_core,
           std::vector<bool> &online)
{
    switch (event.kind) {
      case ScenarioEvent::Kind::Migrate:
        thread_to_core[event.from] = event.to;
        break;
      case ScenarioEvent::Kind::Offline:
        online[event.from] = false;
        break;
      case ScenarioEvent::Kind::Online:
        online[event.from] = true;
        break;
    }
}

} // namespace

// --- Scenario ----------------------------------------------------------------

std::uint64_t
Scenario::totalAccesses() const
{
    std::uint64_t total = 0;
    for (const ScenarioPhase &phase : phases)
        total += phase.accesses;
    return total;
}

const ScenarioPhase &
Scenario::phaseAt(std::uint64_t index) const
{
    assert(!phases.empty());
    const std::uint64_t total = totalAccesses();
    if (loop && total > 0)
        index %= total;
    for (const ScenarioPhase &phase : phases) {
        if (index < phase.startAccess + phase.accesses)
            return phase;
    }
    return phases.back();
}

void
Scenario::validate() const
{
    const auto fail = [this](const std::string &what) {
        throw std::invalid_argument("scenario '" + name + "': " + what);
    };
    if (numCores == 0)
        fail("numCores must be >= 1");
    if (phases.empty())
        fail("schedule has no phases");

    // Simulate the slate the workload will carry through one pass (a
    // looping scenario restarts from the same clean slate, so one pass
    // covers every reachable state).
    std::vector<CoreId> map(numCores);
    std::iota(map.begin(), map.end(), CoreId{0});
    std::vector<bool> on(numCores, true);

    std::uint64_t expect = 0;
    for (const ScenarioPhase &phase : phases) {
        const std::string at = "phase '" + phase.label + "'";
        if (phase.accesses == 0)
            fail(at + ": accesses must be >= 1");
        if (phase.startAccess < expect)
            fail(at + ": overlaps the previous phase (starts at " +
                 std::to_string(phase.startAccess) +
                 ", previous ends at " + std::to_string(expect) + ")");
        if (phase.startAccess > expect)
            fail(at + ": leaves a gap (starts at " +
                 std::to_string(phase.startAccess) +
                 ", previous ends at " + std::to_string(expect) + ")");
        expect += phase.accesses;

        for (const ScenarioEvent &event : phase.events) {
            if (event.from >= numCores ||
                (event.kind == ScenarioEvent::Kind::Migrate &&
                 event.to >= numCores))
                fail(at + ": " +
                     kEventNames[static_cast<std::size_t>(event.kind)] +
                     " names a core id >= numCores (" +
                     std::to_string(numCores) + ")");
            applyEvent(event, map, on);
        }

        const BurstParams &burst = phase.burst;
        if (burst.fraction < 0.0 || burst.fraction > 1.0)
            fail(at + ": burst fraction must be in [0, 1]");
        if (burst.fraction > 0.0) {
            if (burst.ringBlocks == 0)
                fail(at + ": burst ring must be >= 1 block");
            if (burst.producer >= numCores)
                fail(at + ": burst producer core id >= numCores");
            if (!on[burst.producer])
                fail(at + ": burst producer is offline");
        }

        // The base stream must make progress: at least one logical
        // thread has to issue from an online core, or the offline
        // filter would drop every access forever.
        bool progress = false;
        for (CoreId t = 0; t < numCores; ++t)
            progress = progress || on[map[t]];
        if (!progress)
            fail(at + ": every thread is mapped to an offline core");

        if (phase.workload.tracePath.empty() &&
            (phase.workload.codeBlocks == 0 ||
             phase.workload.sharedBlocks == 0 ||
             phase.workload.privateBlocksPerCore == 0))
            fail(at + ": synthetic footprints must be >= 1 block");
        if (phase.workload.tracePath.empty() &&
            (phase.traceOffset != 0 || phase.traceCursor))
            fail(at + ": trace offset/cursor without a trace segment");
    }
}

// --- ScenarioWorkload --------------------------------------------------------

ScenarioWorkload::ScenarioWorkload(const Scenario &scenario)
    : script(scenario)
{
    script.validate();
    cursorReaders.resize(script.phases.size());
    threadToCore.resize(script.numCores);
    online.resize(script.numCores);
    std::iota(threadToCore.begin(), threadToCore.end(), CoreId{0});
    std::fill(online.begin(), online.end(), true);
    enterPhase(0);
    fill();
}

void
ScenarioWorkload::enterPhase(std::size_t index)
{
    phaseIndex = index;
    emittedInPhase = 0;
    burstSeq = 0;
    // Triggers only consider snapshots captured *after* this entry: a
    // stale snapshot from the previous phase must not end the new one
    // before it emitted anything of its own.
    phaseEntrySequence = feed != nullptr ? feed->latest().sequence : 0;
    evaluatedSequence = phaseEntrySequence;
    const ScenarioPhase &phase = script.phases[index];
    for (const ScenarioEvent &event : phase.events)
        applyEvent(event, threadToCore, online);

    WorkloadParams params = phase.workload;
    params.numCores = script.numCores;
    if (!params.tracePath.empty()) {
        // A trace segment: strict, core-bounded, one private reader per
        // workload instance (concurrent cells share nothing). The
        // offset is consumed when the reader opens — once per entry for
        // plain phases, once ever for cursor phases, whose reader
        // persists across exits and loop wraps so each pass reads the
        // trace's next window.
        const auto skipOffset = [&](AccessSource &reader) {
            for (std::uint64_t skipped = 0; skipped < phase.traceOffset;
                 ++skipped) {
                if (reader.exhausted())
                    throw std::runtime_error(
                        "scenario '" + script.name + "' phase '" +
                        phase.label + "': trace offset " +
                        std::to_string(phase.traceOffset) +
                        " is past the end of " + params.tracePath +
                        " (" + std::to_string(skipped) +
                        " record(s) available)");
                reader.next();
            }
        };
        if (phase.traceCursor) {
            phaseSource.reset();
            if (!cursorReaders[index]) {
                cursorReaders[index] = makeTraceReader(
                    params.tracePath,
                    TraceReadOptions{script.numCores, true});
                skipOffset(*cursorReaders[index]);
            }
            phaseStream = cursorReaders[index].get();
        } else {
            phaseSource = makeTraceReader(
                params.tracePath,
                TraceReadOptions{script.numCores, true});
            skipOffset(*phaseSource);
            phaseStream = phaseSource.get();
        }
    } else {
        phaseSource = std::make_unique<SyntheticSource>(params);
        phaseStream = phaseSource.get();
    }

    // Phase-keyed mixing RNG: reseeded on every entry so a looping
    // schedule is exactly periodic.
    burstRng = Rng(params.seed ^ (0x5ce9a210u + index * 0x9e3779b9u));
    burstConsumers.clear();
    if (phase.burst.fraction > 0.0) {
        for (CoreId c = 0; c < script.numCores; ++c)
            if (online[c] && c != phase.burst.producer)
                burstConsumers.push_back(c);
    }
}

bool
ScenarioWorkload::ensurePhase()
{
    while (emittedInPhase >= script.phases[phaseIndex].accesses) {
        if (phaseIndex + 1 < script.phases.size()) {
            enterPhase(phaseIndex + 1);
            continue;
        }
        if (!script.loop) {
            phaseSource.reset();
            phaseStream = nullptr;
            return false;
        }
        // Wrap to a clean slate: identity mapping, every core online,
        // so the schedule is truly periodic.
        std::iota(threadToCore.begin(), threadToCore.end(), CoreId{0});
        std::fill(online.begin(), online.end(), true);
        enterPhase(0);
    }
    return true;
}

bool
ScenarioWorkload::exhausted() const
{
    // A pending dry-out error keeps the stream "not exhausted": the
    // next next() call must throw it rather than let the driver stop
    // cleanly and mask the schedule shift.
    return !hasBuffered && deferredError.empty();
}

const std::string &
ScenarioWorkload::currentPhaseLabel() const
{
    return script.phases[bufferedPhase].label;
}

MemAccess
ScenarioWorkload::burstAccess()
{
    const BurstParams &burst = script.phases[phaseIndex].burst;
    const std::uint64_t fan = burstConsumers.size() + 1;
    const std::uint64_t step = burstSeq % fan;
    const std::uint64_t block = (burstSeq / fan) % burst.ringBlocks;
    ++burstSeq;

    MemAccess access;
    access.addr = burstRegion + block;
    access.instruction = false;
    if (step == 0) {
        access.core = burst.producer;
        access.write = true;
    } else {
        access.core = burstConsumers[step - 1];
        access.write = false;
    }
    return access;
}

void
ScenarioWorkload::fill()
{
    hasBuffered = false;
    for (;;) {
        if (!ensurePhase())
            return; // schedule over: exhausted() turns true
        const ScenarioPhase &phase = script.phases[phaseIndex];

        // Event triggers: a fresh snapshot (captured after this phase
        // began, and not yet evaluated — each snapshot decides at most
        // one phase exit) satisfying any trigger ends the phase early,
        // exactly as if its access budget ran out. The phase must have
        // emitted at least one access so a firing always makes forward
        // progress through the schedule.
        if (!phase.triggers.empty() && feed != nullptr &&
            feed->hasSnapshot()) {
            const ProbeSnapshot &snap = feed->latest();
            if (emittedInPhase > 0 && snap.sequence > phaseEntrySequence &&
                snap.sequence > evaluatedSequence) {
                evaluatedSequence = snap.sequence;
                bool fired = false;
                for (std::size_t i = 0; i < phase.triggers.size(); ++i) {
                    const PhaseTrigger &trigger = phase.triggers[i];
                    // Latency triggers are inert against an untimed
                    // snapshot; the driver rejects such runs up front
                    // (needsTiming), so this only guards direct drives.
                    if (triggerMetricNeedsTiming(trigger.metric) &&
                        !snap.timed)
                        continue;
                    if (triggerSatisfied(trigger, snap)) {
                        triggerLog.push_back(TriggerFiring{
                            static_cast<std::uint32_t>(phaseIndex),
                            static_cast<std::uint32_t>(i),
                            snap.sequence, snap.accessIndex});
                        fired = true;
                        break;
                    }
                }
                if (fired) {
                    emittedInPhase = phase.accesses;
                    continue;
                }
            }
        }

        // A plain trace segment shorter than its phase ends it early —
        // the segment bounds the phase even when a burst overlay could
        // still emit (checked first so a dry segment never leaves a
        // phase emitting pure burst traffic). A *windowed* segment
        // (offset/cursor) running dry instead fails loudly: ending the
        // phase early would silently shift every label and loop period
        // the schedule declares.
        if (phaseStream->exhausted()) {
            if (phase.traceOffset != 0 || phase.traceCursor) {
                // Don't throw here: fill() runs one record ahead, so a
                // throw would swallow the record next() is about to
                // hand out. Buffer the error; the following next()
                // call throws it, after every available record of the
                // window has been delivered.
                deferredError =
                    "scenario '" + script.name + "' phase '" +
                    phase.label + "': windowed trace segment " +
                    phase.workload.tracePath + " ran dry after " +
                    std::to_string(emittedInPhase) + " of " +
                    std::to_string(phase.accesses) +
                    " accesses — the declared schedule would shift";
                return;
            }
            emittedInPhase = phase.accesses;
            continue;
        }
        if (phase.burst.fraction > 0.0 &&
            burstRng.chance(phase.burst.fraction)) {
            buffered = burstAccess();
        } else {
            buffered = phaseStream->next();
            // The base stream's core id is a *logical thread*; the
            // live mapping decides which physical core issues it.
            // Accesses from offline cores are dropped (the thread is
            // parked), which the validator guarantees cannot starve
            // the stream.
            buffered.core = threadToCore[buffered.core];
            if (!online[buffered.core])
                continue;
        }
        bufferedPhase = phaseIndex;
        hasBuffered = true;
        ++emittedInPhase;
        return;
    }
}

MemAccess
ScenarioWorkload::next()
{
    if (!hasBuffered) {
        if (!deferredError.empty())
            throw std::runtime_error(deferredError);
        throw std::runtime_error("scenario '" + script.name +
                                 "' exhausted");
    }
    const MemAccess result = buffered;
    fill();
    return result;
}

bool
ScenarioWorkload::wantsFeedback() const
{
    for (const ScenarioPhase &phase : script.phases)
        if (!phase.triggers.empty())
            return true;
    return false;
}

std::uint64_t
ScenarioWorkload::probeInterval() const
{
    return script.probeEvery != 0 ? script.probeEvery : kDefaultProbeEvery;
}

void
ScenarioWorkload::attachFeedback(const FeedbackChannel &channel)
{
    feed = &channel;
}

bool
ScenarioWorkload::needsTiming() const
{
    for (const ScenarioPhase &phase : script.phases)
        for (const PhaseTrigger &trigger : phase.triggers)
            if (triggerMetricNeedsTiming(trigger.metric))
                return true;
    return false;
}

std::uint64_t
ScenarioWorkload::feedbackDigest() const
{
    std::uint64_t hash = fnv1aInit();
    for (const TriggerFiring &firing : triggerLog) {
        hash = fnv1aMix(hash, firing.phase);
        hash = fnv1aMix(hash, firing.trigger);
        hash = fnv1aMix(hash, firing.sequence);
        hash = fnv1aMix(hash, firing.accessIndex);
    }
    return hash;
}

// --- scenario text format ----------------------------------------------------

namespace {

[[noreturn]] void
parseFail(const std::string &name, std::uint64_t line,
          const std::string &what)
{
    throw std::runtime_error(name + ":" + std::to_string(line) + ": " +
                             what);
}

} // namespace

std::vector<CliFlag>
workloadKnobs(WorkloadParams &p)
{
    return {
        countFlag("code-blocks", p.codeBlocks, 0, "shared code blocks"),
        countFlag("shared-blocks", p.sharedBlocks, 0, "shared data blocks"),
        countFlag("private-blocks", p.privateBlocksPerCore, 0,
                  "private blocks per core"),
        realFlag("instr-frac", p.instructionFraction, "ifetch probability"),
        realFlag("shared-frac", p.sharedDataFraction, "shared probability"),
        realFlag("write-frac", p.writeFraction, "write probability"),
        realFlag("code-theta", p.codeTheta, "code popularity skew"),
        realFlag("shared-theta", p.sharedTheta, "shared popularity skew"),
        realFlag("private-theta", p.privateTheta, "private popularity skew"),
        countFlag("seed", p.seed, 0, "generator seed"),
    };
}

std::vector<CliFlag>
burstKnobs(BurstParams &p)
{
    return {
        realFlag("fraction", p.fraction, "burst access probability"),
        countFlag("ring", p.ringBlocks, 0, "ring blocks"),
        countFlag("producer", p.producer, 0, "producer core"),
    };
}

std::vector<CliFlag>
traceOptions(ScenarioPhase &phase)
{
    return {
        countFlag("offset", phase.traceOffset, 0, "records to skip"),
        toggleFlag("cursor", phase.traceCursor, "persistent reader"),
    };
}

Scenario
parseScenarioText(const std::string &text, const std::string &name)
{
    Scenario scenario;
    scenario.name = name;

    std::istringstream in(text);
    std::string line;
    std::uint64_t line_number = 0;
    bool in_phase = false;
    ScenarioPhase phase;
    std::uint64_t phase_line = 0;
    std::uint64_t auto_start = 0;

    // Check the schedule so far, so a phase that overlaps, leaves a gap
    // or starves the CMP fails at its own `phase` line.
    const auto checkSchedule = [&](std::uint64_t at) {
        try {
            scenario.validate();
        } catch (const std::invalid_argument &e) {
            parseFail(name, at, e.what());
        }
    };
    const auto finishPhase = [&] {
        if (!in_phase)
            return;
        auto_start = phase.startAccess + phase.accesses;
        scenario.phases.push_back(std::move(phase));
        phase = ScenarioPhase{};
        in_phase = false;
        checkSchedule(phase_line);
    };

    while (std::getline(in, line)) {
        ++line_number;
        std::istringstream tokens(line);
        std::string directive;
        if (!(tokens >> directive) || directive[0] == '#')
            continue;
        std::vector<std::string> args;
        for (std::string tok; tokens >> tok;) {
            if (tok[0] == '#')
                break;
            args.push_back(std::move(tok));
        }
        const auto want = [&](std::size_t lo, std::size_t hi) {
            if (args.size() < lo || args.size() > hi)
                parseFail(name, line_number,
                          "'" + directive + "' takes " +
                              std::to_string(lo) +
                              (hi != lo ? ".." + std::to_string(hi)
                                        : std::string()) +
                              " argument(s)");
        };
        const auto count = [&](const std::string &token, const char *what) {
            const std::optional<std::uint64_t> value =
                parseCliUnsigned(token);
            if (!value)
                parseFail(name, line_number,
                          std::string("malformed ") + what + " '" + token +
                              "'");
            return *value;
        };
        const auto core = [&](std::uint64_t id) {
            if (id >= scenario.numCores)
                parseFail(name, line_number,
                          "core id " + std::to_string(id) +
                              " out of range (cores " +
                              std::to_string(scenario.numCores) + ")");
            return static_cast<CoreId>(id);
        };
        const auto phaseScoped = [&] {
            if (!in_phase)
                parseFail(name, line_number,
                          "'" + directive + "' outside a phase");
        };
        // `set`, `burst` and `trace` options are declared settings.
        const auto setKnobs = [&](std::span<const std::string> settings,
                                  std::span<const CliFlag> knobs) {
            const std::string what =
                directive == "set" ? "" : directive + " ";
            for (const std::string &setting : settings) {
                bool ok = false;
                const CliFlag *knob = setFlag(knobs, setting, ok);
                if (knob == nullptr)
                    parseFail(name, line_number,
                              "unknown " + what +
                                  (directive == "trace" ? "option '"
                                                        : "knob '") +
                                  setting + "' (known: " +
                                  flagNames(knobs) + ")");
                if (!ok)
                    parseFail(name, line_number,
                              "malformed " + what + knob->name + " '" +
                                  setting.substr(std::min(
                                      setting.size(),
                                      knob->name.size() + 1)) +
                                  "'");
            }
        };

        if (directive == "scenario") {
            want(1, 1);
            scenario.name = args[0];
        } else if (directive == "cores") {
            want(1, 1);
            if (in_phase || !scenario.phases.empty())
                parseFail(name, line_number,
                          "'cores' must precede the first phase");
            scenario.numCores = count(args[0], "core count");
            if (scenario.numCores == 0)
                parseFail(name, line_number, "core count must be >= 1");
        } else if (directive == "probe") {
            want(1, 1);
            scenario.probeEvery = count(args[0], "probe interval");
            if (scenario.probeEvery == 0)
                parseFail(name, line_number,
                          "probe interval must be >= 1");
        } else if (directive == "loop") {
            want(1, 1);
            if (args[0] == "on")
                scenario.loop = true;
            else if (args[0] == "off")
                scenario.loop = false;
            else
                parseFail(name, line_number, "loop takes 'on' or 'off'");
        } else if (directive == "phase") {
            want(2, 3);
            finishPhase();
            in_phase = true;
            phase_line = line_number;
            phase.label = args[0];
            if (args.size() == 2) {
                phase.startAccess = auto_start;
                phase.accesses = count(args[1], "phase length");
            } else {
                phase.startAccess = count(args[1], "phase start");
                phase.accesses = count(args[2], "phase length");
            }
        } else if (directive == "preset") {
            want(1, 1);
            phaseScoped();
            PaperWorkload workload{};
            if (args[0] == "synthetic") {
                phase.workload = WorkloadParams{};
            } else if (paperWorkloadByName(args[0], workload)) {
                phase.workload = paperWorkloadParams(workload, false,
                                                     scenario.numCores);
            } else {
                parseFail(name, line_number,
                          "unknown preset '" + args[0] +
                              "' (try DB2, ocean, ..., or synthetic)");
            }
        } else if (directive == "set") {
            want(1, 64);
            phaseScoped();
            setKnobs(args, workloadKnobs(phase.workload));
        } else if (directive == "trace") {
            want(1, 3);
            phaseScoped();
            phase.workload.tracePath = args[0];
            setKnobs(std::span(args).subspan(1), traceOptions(phase));
        } else if (directive == "migrate") {
            want(2, 2);
            phaseScoped();
            phase.events.push_back(
                ScenarioEvent{ScenarioEvent::Kind::Migrate,
                              core(count(args[0], "core id")),
                              core(count(args[1], "core id"))});
        } else if (directive == "offline" || directive == "online") {
            want(1, 1);
            phaseScoped();
            phase.events.push_back(ScenarioEvent{
                directive == "offline" ? ScenarioEvent::Kind::Offline
                                       : ScenarioEvent::Kind::Online,
                core(count(args[0], "core id")), 0});
        } else if (directive == "burst") {
            want(1, 3);
            phaseScoped();
            setKnobs(args, burstKnobs(phase.burst));
            core(phase.burst.producer);
        } else if (directive == "until" || directive == "when") {
            // Two spellings of the same thing: "until occupancy>0.8"
            // reads naturally for ramps, "when p99>150" for alarms.
            want(1, 1);
            phaseScoped();
            try {
                phase.triggers.push_back(parsePhaseTrigger(args[0]));
            } catch (const std::invalid_argument &e) {
                parseFail(name, line_number, e.what());
            }
        } else {
            // The "unknown event" rejection case: anything that is not
            // a known directive is an error, never silently skipped.
            parseFail(name, line_number,
                      "unknown directive '" + directive + "'");
        }
    }
    finishPhase();
    checkSchedule(line_number); // an empty schedule fails at the end
    return scenario;
}

Scenario
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open scenario file: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    Scenario scenario =
        parseScenarioText(text.str(), std::filesystem::path(path).string());
    if (scenario.name == std::filesystem::path(path).string())
        scenario.name = std::filesystem::path(path).stem().string();
    return scenario;
}

// --- presets -----------------------------------------------------------------

namespace {

/** Per-phase reseed so consecutive phases draw distinct streams. */
WorkloadParams
phaseProfile(WorkloadParams base, std::uint64_t phase_index)
{
    base.seed = base.seed + 0x9e37 * (phase_index + 1);
    return base;
}

/** Append a phase continuing the schedule at the running offset. */
ScenarioPhase &
addPhase(Scenario &scenario, std::string label, std::uint64_t accesses,
         WorkloadParams workload)
{
    ScenarioPhase phase;
    phase.label = std::move(label);
    phase.startAccess = scenario.totalAccesses();
    phase.accesses = accesses;
    phase.workload = std::move(workload);
    scenario.phases.push_back(std::move(phase));
    return scenario.phases.back();
}

Scenario
migrationStorm(std::size_t cores, std::uint64_t accesses)
{
    Scenario sc;
    sc.name = "migration-storm";
    sc.numCores = cores;
    const WorkloadParams oltp =
        paperWorkloadParams(PaperWorkload::OltpDb2, false, cores);
    addPhase(sc, "steady", accesses, phaseProfile(oltp, 0));
    for (std::uint64_t k = 1; k <= 5; ++k) {
        ScenarioPhase &phase = addPhase(sc, "storm-" + std::to_string(k),
                                        accesses, phaseProfile(oltp, k));
        // Two rotating threads hop half-way across the CMP each phase:
        // their private regions land in fresh caches while the old
        // copies linger as stale directory entries.
        const CoreId a = static_cast<CoreId>((2 * k) % cores);
        const CoreId b = static_cast<CoreId>((2 * k + 5) % cores);
        phase.events.push_back(
            {ScenarioEvent::Kind::Migrate, a,
             static_cast<CoreId>((a + cores / 2) % cores)});
        phase.events.push_back(
            {ScenarioEvent::Kind::Migrate, b,
             static_cast<CoreId>((b + cores / 2 + 1) % cores)});
    }
    return sc;
}

Scenario
phaseOltpDss(std::size_t cores, std::uint64_t accesses)
{
    Scenario sc;
    sc.name = "phase-oltp-dss";
    sc.numCores = cores;
    const WorkloadParams oltp =
        paperWorkloadParams(PaperWorkload::OltpDb2, false, cores);
    const WorkloadParams dss =
        paperWorkloadParams(PaperWorkload::DssQry2, false, cores);
    addPhase(sc, "oltp", accesses, phaseProfile(oltp, 0));
    // The batch window: scan-heavy private footprints sweep the shared
    // OLTP working set out of the directory...
    addPhase(sc, "dss", 2 * accesses, phaseProfile(dss, 1));
    // ...and the return shift re-inserts it under pressure.
    addPhase(sc, "oltp-return", accesses, phaseProfile(oltp, 2));
    return sc;
}

Scenario
diurnal(std::size_t cores, std::uint64_t accesses)
{
    Scenario sc;
    sc.name = "diurnal";
    sc.numCores = cores;
    const WorkloadParams web =
        paperWorkloadParams(PaperWorkload::WebApache, false, cores);
    WorkloadParams dusk = web;
    dusk.sharedBlocks = std::max<std::size_t>(1, web.sharedBlocks / 4);
    dusk.privateBlocksPerCore =
        std::max<std::size_t>(1, web.privateBlocksPerCore / 2);

    addPhase(sc, "day", accesses, phaseProfile(web, 0));
    addPhase(sc, "dusk", accesses / 2 + 1, phaseProfile(dusk, 1));

    // Night: the upper half of the CMP consolidates onto the lower
    // half and powers down (a 1-core system has nothing to shed).
    ScenarioPhase &night =
        addPhase(sc, "night", accesses, phaseProfile(dusk, 2));
    const std::size_t half = cores >= 2 ? cores / 2 : cores;
    for (std::size_t c = half; c < cores; ++c) {
        night.events.push_back(
            {ScenarioEvent::Kind::Migrate, static_cast<CoreId>(c),
             static_cast<CoreId>(c - half)});
        night.events.push_back(
            {ScenarioEvent::Kind::Offline, static_cast<CoreId>(c), 0});
    }

    ScenarioPhase &morning =
        addPhase(sc, "morning", accesses, phaseProfile(web, 3));
    for (std::size_t c = half; c < cores; ++c) {
        morning.events.push_back(
            {ScenarioEvent::Kind::Online, static_cast<CoreId>(c), 0});
        morning.events.push_back(
            {ScenarioEvent::Kind::Migrate, static_cast<CoreId>(c),
             static_cast<CoreId>(c)});
    }
    return sc;
}

Scenario
producerRing(std::size_t cores, std::uint64_t accesses)
{
    Scenario sc;
    sc.name = "producer-ring";
    sc.numCores = cores;
    const WorkloadParams sci =
        paperWorkloadParams(PaperWorkload::SciOcean, false, cores);
    addPhase(sc, "calm", accesses, phaseProfile(sci, 0));
    // Burst: one producer writes a block ring while every other core
    // reads it back — write-upgrade and sharing-invalidation pressure
    // concentrated on a tiny, maximally shared footprint.
    ScenarioPhase &burst =
        addPhase(sc, "burst", accesses, phaseProfile(sci, 1));
    burst.burst.fraction = 0.6;
    burst.burst.ringBlocks = 512;
    burst.burst.producer = 0;
    addPhase(sc, "drain", accesses, phaseProfile(sci, 2));
    return sc;
}

Scenario
consolidation(std::size_t cores, std::uint64_t accesses)
{
    Scenario sc;
    sc.name = "consolidation";
    sc.numCores = cores;
    const WorkloadParams oltp =
        paperWorkloadParams(PaperWorkload::OltpOracle, false, cores);
    addPhase(sc, "full", accesses, phaseProfile(oltp, 0));
    // Shed a quarter of the cores per step, threads folding onto the
    // survivors, until a quarter of the CMP carries everything.
    const std::size_t quarter = std::max<std::size_t>(1, cores / 4);
    std::size_t live = cores;
    for (std::uint64_t k = 1; k <= 3 && live > quarter; ++k) {
        ScenarioPhase &phase =
            addPhase(sc, "consolidate-" + std::to_string(k), accesses,
                     phaseProfile(oltp, k));
        const std::size_t target = std::max(quarter, live - quarter);
        for (std::size_t c = target; c < live; ++c) {
            phase.events.push_back(
                {ScenarioEvent::Kind::Migrate, static_cast<CoreId>(c),
                 static_cast<CoreId>(c % target)});
            phase.events.push_back({ScenarioEvent::Kind::Offline,
                                    static_cast<CoreId>(c), 0});
        }
        live = target;
    }
    ScenarioPhase &back =
        addPhase(sc, "repopulate", accesses, phaseProfile(oltp, 7));
    for (std::size_t c = 0; c < cores; ++c) {
        back.events.push_back(
            {ScenarioEvent::Kind::Online, static_cast<CoreId>(c), 0});
        back.events.push_back({ScenarioEvent::Kind::Migrate,
                               static_cast<CoreId>(c),
                               static_cast<CoreId>(c)});
    }
    return sc;
}

Scenario
footprintRamp(std::size_t cores, std::uint64_t accesses)
{
    Scenario sc;
    sc.name = "footprint-ramp";
    sc.numCores = cores;
    WorkloadParams base;
    base.name = "ramp";
    base.numCores = cores;
    base.codeBlocks = 2048;
    base.sharedBlocks = 8192;
    base.privateBlocksPerCore = 1024;
    base.sharedDataFraction = 0.5;
    base.writeFraction = 0.3;
    for (std::uint64_t k = 0; k < 3; ++k) {
        WorkloadParams grown = phaseProfile(base, k);
        grown.sharedBlocks = base.sharedBlocks << (2 * k);
        addPhase(sc, "grow-" + std::to_string(1u << (2 * k)), accesses,
                 std::move(grown));
    }
    addPhase(sc, "collapse", accesses, phaseProfile(base, 3));
    return sc;
}

/** One built-in scenario preset: its name and its schedule builder. */
struct ScenarioPresetRow
{
    std::string_view name;
    Scenario (*build)(std::size_t cores, std::uint64_t accesses);
};

/** The presets, in the order `all` expands to. */
constexpr ScenarioPresetRow kScenarioPresets[] = {
    {"migration-storm", migrationStorm}, {"phase-oltp-dss", phaseOltpDss},
    {"diurnal", diurnal},                {"producer-ring", producerRing},
    {"consolidation", consolidation},    {"footprint-ramp", footprintRamp},
};

const ScenarioPresetRow *
findPreset(std::string_view name)
{
    for (const ScenarioPresetRow &row : kScenarioPresets)
        if (row.name == name)
            return &row;
    return nullptr;
}

} // namespace

const std::vector<std::string> &
scenarioPresetNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const ScenarioPresetRow &row : kScenarioPresets)
            out.emplace_back(row.name);
        return out;
    }();
    return names;
}

Scenario
scenarioPreset(const std::string &name, std::size_t num_cores,
               std::uint64_t phase_accesses)
{
    if (num_cores == 0 || phase_accesses == 0)
        throw std::invalid_argument(
            "scenarioPreset needs num_cores >= 1 and phase_accesses >= 1");
    const ScenarioPresetRow *preset = findPreset(name);
    if (preset == nullptr) {
        std::string known;
        for (const std::string &n : scenarioPresetNames())
            known += (known.empty() ? "" : ", ") + n;
        throw std::invalid_argument("unknown scenario preset '" + name +
                                    "' (try " + known +
                                    ", or a scenario file path)");
    }
    Scenario scenario = preset->build(num_cores, phase_accesses);
    scenario.validate();
    return scenario;
}

std::vector<std::string>
splitScenarioSpecs(const std::string &specs)
{
    std::vector<std::string> items;
    for (const std::string_view item : splitList(specs, ',')) {
        // "all" expands to every preset wherever it appears, so it
        // composes with extra files ("all,my.scn").
        if (item == "all")
            items.insert(items.end(), scenarioPresetNames().begin(),
                         scenarioPresetNames().end());
        else if (!item.empty())
            items.emplace_back(item);
    }
    return items;
}

Scenario
resolveScenario(const std::string &spec, std::size_t num_cores)
{
    if (findPreset(spec) != nullptr)
        return scenarioPreset(spec, num_cores);
    Scenario scenario = parseScenarioFile(spec);
    if (scenario.numCores > num_cores)
        throw std::runtime_error(
            spec + ": scenario needs " +
            std::to_string(scenario.numCores) +
            " cores but the system has " + std::to_string(num_cores));
    return scenario;
}

WorkloadParams
scenarioWorkloadParams(const std::string &spec)
{
    WorkloadParams params;
    params.scenarioSpec = spec;
    params.name = findPreset(spec) != nullptr
                      ? spec
                      : std::filesystem::path(spec).stem().string();
    return params;
}

} // namespace cdir
