/**
 * @file
 * Phased scenario engine: dynamic workloads as a first-class subsystem.
 *
 * Every other workload in the repository is *stationary* — a
 * SyntheticWorkload draws from one fixed sharing profile and a trace
 * replays a frozen stream — so the behaviours the paper argues matter
 * most (gradual frame-by-frame eviction, stale-entry accumulation,
 * invalidation pressure when sharing patterns *change*, §3.2/§5.4) are
 * never exercised over time. A `Scenario` makes workload dynamism
 * declarative: a schedule of timed **phases**, each wrapping a
 * `WorkloadParams` (synthetic knobs or a trace segment), plus
 * **transition events** applied when a phase begins:
 *
 *  - *thread migration*: a logical thread keeps its private footprint
 *    but starts issuing from another physical core — the classic
 *    OS-rebalance pattern that strands stale directory entries naming
 *    the old core and drags the region into a second cache;
 *  - *core off-/on-lining*: consolidation — an offline physical core
 *    issues nothing, so its cached blocks decay out of the directory
 *    only as conflicts evict them;
 *  - *footprint growth/shrink*: phases simply carry different
 *    `WorkloadParams` footprints (the region layout is rank-stable, so
 *    a grown footprint shares its hot head with the previous phase);
 *  - *bursty producer-consumer sharing*: a per-phase overlay that
 *    interleaves a write-then-fan-out ring into the base stream.
 *
 * `ScenarioWorkload` exposes a scenario as a plain `AccessSource`, so it
 * composes unchanged with the recorder (record a scenario to a trace),
 * the trace replay pipeline, and the sweep engine's cells — every
 * consumer constructs its own instance, so scenario sweeps stay
 * bit-identical at any `--jobs` value.
 *
 * Scenarios come from three places: built-in presets (`scenarioPreset`),
 * a line-oriented text format (`parseScenarioFile`, same error
 * conventions as the trace readers: "path:line: message"), or
 * programmatic construction (see examples/phased_scenario.cc).
 */

#ifndef CDIR_WORKLOAD_SCENARIO_HH
#define CDIR_WORKLOAD_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cli_flag.hh"
#include "common/rng.hh"
#include "workload/feedback.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

namespace cdir {

/** One transition applied when a phase begins (in declaration order). */
struct ScenarioEvent
{
    /** In directive-name order ("migrate", "offline", "online"). */
    enum class Kind
    {
        /** Logical thread @ref from starts issuing from physical core
         *  @ref to (its private region follows it). */
        Migrate,
        /** Physical core @ref from stops issuing accesses. */
        Offline,
        /** Physical core @ref from resumes issuing accesses. */
        Online,
    };

    Kind kind = Kind::Migrate;
    CoreId from = 0; //!< Migrate: logical thread; Offline/Online: core
    CoreId to = 0;   //!< Migrate only: destination physical core
};

/** Bursty producer-consumer overlay mixed into one phase's stream. */
struct BurstParams
{
    /** Probability an access is a burst access (0 = overlay off). */
    double fraction = 0.0;
    /** Ring of shared blocks cycled by the producer. */
    std::uint64_t ringBlocks = 256;
    /** Physical core that writes the ring. */
    CoreId producer = 0;
};

/** One timed phase of a scenario. */
struct ScenarioPhase
{
    std::string label;
    /** Absolute access index at which the phase begins; phases must
     *  tile the schedule exactly (no gaps, no overlap). */
    std::uint64_t startAccess = 0;
    /** Accesses the phase emits (>= 1). */
    std::uint64_t accesses = 0;
    /** Base stream: synthetic knobs, or a trace segment when
     *  workload.tracePath is set (a plain segment shorter than the
     *  phase simply ends the phase early; a *windowed* segment — see
     *  traceOffset / traceCursor — must cover the phase). */
    WorkloadParams workload;
    /**
     * Records of the trace segment skipped before the phase's first
     * access (trace phases only), so one long trace can serve several
     * phases as distinct windows. A windowed phase that runs dry
     * mid-phase throws instead of ending early: the declared schedule
     * (phase labels, loop period) must never silently shift.
     */
    std::uint64_t traceOffset = 0;
    /**
     * Persistent segment cursor (trace phases only): the phase's reader
     * survives phase exits and loop wraps, so each pass through the
     * phase consumes the *next* window of the trace instead of
     * restarting at traceOffset. The offset is applied once, when the
     * reader first opens. Like traceOffset, running dry mid-phase
     * throws rather than shifting the schedule.
     */
    bool traceCursor = false;
    /** Transitions applied when the phase begins. */
    std::vector<ScenarioEvent> events;
    /** Producer-consumer overlay (fraction 0 = off). */
    BurstParams burst;
    /**
     * Event triggers (`until occupancy>0.8`, `when p99>120`): the
     * phase ends early when any trigger is satisfied by a feedback
     * snapshot captured *after* the phase began; @ref accesses then
     * acts as the timeout cap. Requires a feedback channel
     * (runExperiment attaches one automatically); like a short plain
     * trace segment, an early exit shifts the emitted stream ahead of
     * the declared schedule — deterministically, because snapshots
     * fire at exact access counts (see workload/feedback.hh).
     */
    std::vector<PhaseTrigger> triggers;
};

/** A schedule of timed phases (see file comment). */
struct Scenario
{
    std::string name = "scenario";
    /** Physical cores the scenario issues from (core ids < numCores). */
    std::size_t numCores = 16;
    /**
     * Loop the schedule when the last phase ends (the default, so a
     * scenario behaves like the endless synthetic generators and the
     * warmup/measure lengths control the run). Each wrap restarts from
     * a clean slate: identity thread mapping, every core online.
     */
    bool loop = true;
    /**
     * Accesses between feedback probe captures for triggered phases
     * (`probe <N>` in the text format); 0 = the default interval
     * (kDefaultProbeEvery). Only consulted when some phase declares a
     * trigger.
     */
    std::uint64_t probeEvery = 0;
    std::vector<ScenarioPhase> phases;

    /** Accesses in one pass of the schedule. */
    std::uint64_t totalAccesses() const;

    /**
     * Phase active at absolute access @p index (looping scenarios wrap
     * modulo totalAccesses()). Requires a validated scenario. The
     * tiling assumes every phase emits its declared length: a plain
     * trace segment shorter than its phase ends the phase early,
     * shifting the emitted stream ahead of this schedule (labels and
     * the loop period then describe the declaration, not the stream);
     * a *windowed* segment (traceOffset / traceCursor) instead throws
     * when it cannot cover its phase, so windowed schedules never
     * shift.
     */
    const ScenarioPhase &phaseAt(std::uint64_t index) const;

    /**
     * Check the schedule: phases tile exactly from access 0 (a phase
     * that starts early *overlaps* its predecessor; one that starts
     * late leaves a *gap* — both rejected), every phase is non-empty,
     * event/burst core ids are < numCores, burst fractions are
     * probabilities, and at least one core is online in every phase.
     * @throws std::invalid_argument naming the offending phase.
     */
    void validate() const;
};

/** Default accesses between feedback probe captures. */
inline constexpr std::uint64_t kDefaultProbeEvery = 10'000;

/**
 * A scenario as an AccessSource: emits each phase's base stream (with
 * the burst overlay mixed in) through the live thread-to-core mapping
 * and online set. Deterministic: two instances of the same scenario
 * yield identical streams, so record -> replay through the trace
 * pipeline is bit-identical to the live run.
 *
 * Scenarios with *triggered* phases are closed-loop FeedbackConsumers:
 * the driver (runExperiment) attaches a probe channel, and a phase
 * with triggers ends as soon as a snapshot captured after the phase
 * began satisfies one — still deterministic, because snapshots fire at
 * exact access counts, so the recorded stream of a closed-loop run
 * replays as an ordinary trace. Without an attached channel triggers
 * never fire (phases run to their timeout caps); drivers that cannot
 * attach one should refuse closed-loop scenarios loudly (trace_tool
 * record does).
 */
class ScenarioWorkload : public AccessSource, public FeedbackConsumer
{
  public:
    /** One trigger firing: which phase/trigger fired on which
     *  snapshot. Deterministic at any `--jobs`. */
    struct TriggerFiring
    {
        std::uint32_t phase = 0;   //!< phase index that ended early
        std::uint32_t trigger = 0; //!< index into the phase's triggers
        std::uint64_t sequence = 0;    //!< snapshot sequence that fired
        std::uint64_t accessIndex = 0; //!< snapshot's access position
    };

    /** Validates @p scenario (throws std::invalid_argument). */
    explicit ScenarioWorkload(const Scenario &scenario);

    MemAccess next() override;
    bool exhausted() const override;

    /** The schedule driving this source. */
    const Scenario &scenario() const { return script; }

    /** Label of the phase the next access falls into. */
    const std::string &currentPhaseLabel() const;

    /** Physical core logical thread @p thread currently issues from. */
    CoreId coreOf(CoreId thread) const { return threadToCore[thread]; }

    /** True iff physical core @p core is online. */
    bool coreOnline(CoreId core) const { return online[core]; }

    // FeedbackConsumer interface (see class comment).
    bool wantsFeedback() const override;
    std::uint64_t probeInterval() const override;
    void attachFeedback(const FeedbackChannel &channel) override;
    bool needsTiming() const override;
    std::uint64_t
    feedbackEventCount() const override
    {
        return triggerLog.size();
    }
    std::uint64_t feedbackDigest() const override;

    /** Trigger firings so far, in firing order. */
    const std::vector<TriggerFiring> &firings() const
    {
        return triggerLog;
    }

  private:
    void enterPhase(std::size_t index);
    MemAccess burstAccess();
    /** Advance past finished phases; false when the scenario ends. */
    bool ensurePhase();
    /** Buffer the next access (one-record lookahead, like the trace
     *  readers), or clear hasBuffered at the end of the schedule —
     *  which is how exhausted() stays exact even when a trace segment
     *  runs dry mid-phase. */
    void fill();

    Scenario script;
    std::size_t phaseIndex = 0;
    std::uint64_t emittedInPhase = 0;
    /** Base stream of the current phase (synthetic or trace segment);
     *  empty while a cursor phase runs (its reader lives in
     *  cursorReaders). */
    std::unique_ptr<AccessSource> phaseSource;
    /** Per-phase persistent readers for traceCursor phases, surviving
     *  phase exits and loop wraps (indexed by phase). */
    std::vector<std::unique_ptr<AccessSource>> cursorReaders;
    /** The stream fill() draws from: phaseSource, or the current
     *  phase's cursor reader. Non-owning. */
    AccessSource *phaseStream = nullptr;
    /** Burst-mixing RNG, reseeded per phase entry. */
    Rng burstRng{0};
    std::uint64_t burstSeq = 0;
    /** Online physical cores other than the producer, in id order. */
    std::vector<CoreId> burstConsumers;
    std::vector<CoreId> threadToCore; //!< logical thread -> physical core
    std::vector<bool> online;         //!< physical core online?
    MemAccess buffered{};
    bool hasBuffered = false;
    /** Phase the buffered access belongs to (its events are applied). */
    std::size_t bufferedPhase = 0;
    /**
     * Deferred dry-out error: when the one-record lookahead discovers a
     * windowed trace segment ran dry, the failure is buffered here
     * instead of thrown from fill(), so the record already buffered is
     * still delivered; the *following* next() call throws. While the
     * error is pending exhausted() stays false, keeping drivers calling
     * next() so the failure is never silently swallowed.
     */
    std::string deferredError;

    // --- closed-loop state (empty-trigger scenarios never touch it) ---
    /** Attached feedback channel (nullptr = open loop). */
    const FeedbackChannel *feed = nullptr;
    /** Snapshot sequence current at phase entry: only snapshots
     *  captured after the phase began may end it. */
    std::uint64_t phaseEntrySequence = 0;
    /** Last snapshot sequence already evaluated against the current
     *  phase's triggers (each snapshot is tested once). */
    std::uint64_t evaluatedSequence = 0;
    /** Firings so far (feedbackDigest() hashes this log). */
    std::vector<TriggerFiring> triggerLog;
};

// --- scenario text format ----------------------------------------------------

/**
 * Parse the line-oriented scenario format:
 *
 *     # comment
 *     scenario <name>
 *     cores <N>
 *     probe <N>                           # feedback probe interval
 *     phase <label> <accesses>            # starts where the last ended
 *     phase <label> <start> <accesses>    # explicit start (validated)
 *       preset <DB2|ocean|...|synthetic>  # base WorkloadParams
 *       set <knob>=<value>                # override a synthetic knob
 *       trace <path> [offset=N] [cursor]  # trace segment instead
 *       migrate <thread> <core>
 *       offline <core>
 *       online <core>
 *       burst fraction=<f> ring=<blocks> producer=<core>
 *       until <metric><op><value>         # event trigger: end early
 *       when <metric><op><value>          # alias of `until`
 *
 * `set`, `burst` and `trace` arguments are declared settings
 * (workloadKnobs, burstKnobs, traceOptions below). `trace` options:
 * `offset=N` skips the segment's first N records and `cursor` makes the
 * reader persistent across passes (windowing one long trace — see
 * ScenarioPhase); either one makes the segment *windowed*, rejected at
 * run time if it cannot cover its phase.
 * Directives before the first `phase` configure the scenario;
 * `loop <on|off>` controls wrapping. Errors (unknown directive/event,
 * malformed value, core id out of range) throw std::runtime_error
 * carrying "<name>:<line>: message"; a schedule error (overlapping
 * phases, gaps, starvation) carries the line of the `phase` directive
 * that causes it, and an empty schedule the last line.
 */
Scenario parseScenarioText(const std::string &text,
                           const std::string &name);

/** Read and parse @p path; throws std::runtime_error (file errors and
 *  parse errors both carry the path). */
Scenario parseScenarioFile(const std::string &path);

/**
 * The scenario `set` knobs bound to @p params: code-blocks,
 * shared-blocks, private-blocks, seed (counts), instr-frac,
 * shared-frac, write-frac, code-theta, shared-theta, private-theta
 * (finite reals).
 */
std::vector<CliFlag> workloadKnobs(WorkloadParams &params);

/** The `burst` knobs bound to @p params: fraction, ring, producer (a
 *  core id, which the parser also bounds by the scenario's cores). */
std::vector<CliFlag> burstKnobs(BurstParams &params);

/** The `trace` options bound to @p phase: offset=N and bare cursor. */
std::vector<CliFlag> traceOptions(ScenarioPhase &phase);

// --- presets -----------------------------------------------------------------

/** Names of the built-in scenario presets. */
const std::vector<std::string> &scenarioPresetNames();

/**
 * Build a preset schedule for a @p num_cores CMP. @p phase_accesses
 * scales the schedule (each preset phase is one or a few multiples of
 * it). @throws std::invalid_argument for an unknown name.
 *
 *  - "migration-storm": OLTP profile; every phase migrates a rotating
 *    pair of threads, piling stale entries onto the directory.
 *  - "phase-oltp-dss": OLTP -> DSS -> OLTP phase change (mix and
 *    footprint shift, the classic daily batch window).
 *  - "diurnal": day / dusk / night / morning — footprints shrink, half
 *    the cores consolidate offline overnight, then everything returns.
 *  - "producer-ring": light private load with a producer-consumer ring
 *    burst phase (invalidation pressure), then quiescence.
 *  - "consolidation": threads progressively migrate onto fewer cores as
 *    the donors go offline, then the CMP repopulates.
 *  - "footprint-ramp": shared footprint grows phase over phase, then
 *    collapses back (directory fill/drain).
 */
Scenario scenarioPreset(const std::string &name, std::size_t num_cores,
                        std::uint64_t phase_accesses = 250'000);

/**
 * Resolve @p spec — a preset name, else a scenario file path — for a
 * @p num_cores CMP. A file whose `cores` exceeds @p num_cores is
 * rejected (mirrors the trace readers' core-id bound).
 */
Scenario resolveScenario(const std::string &spec, std::size_t num_cores);

/**
 * Expand a `--scenario=` argument into individual specs: split on
 * commas (empty items dropped), with "all" expanding to every preset
 * name wherever it appears ("all,my.scn" works). The one grammar
 * shared by the sweep axis (appendScenarioWorkloads) and the
 * scenario-driven harnesses.
 */
std::vector<std::string> splitScenarioSpecs(const std::string &specs);

/**
 * WorkloadParams naming @p spec as a scenario source: experiment cells
 * built from it construct a ScenarioWorkload instead of a stationary
 * generator (see runExperiment). The label/name is the preset name or
 * the file's stem.
 */
WorkloadParams scenarioWorkloadParams(const std::string &spec);

} // namespace cdir

#endif // CDIR_WORKLOAD_SCENARIO_HH
