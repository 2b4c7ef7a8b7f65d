/**
 * @file
 * Tests for the phased scenario subsystem and interval telemetry:
 *
 *  - preset registry and ScenarioWorkload semantics (determinism,
 *    periodic looping, thread migration, core off-lining, the
 *    producer-consumer burst overlay);
 *  - scenario text-format parsing and its rejection cases (unknown
 *    directives/events, bad core ids, overlapping phases, gaps — all
 *    carrying "name:line:" context);
 *  - record -> replay of a ScenarioWorkload through the trace pipeline
 *    (bit-identical system state);
 *  - the acceptance pin: a scenario sweep's time series is
 *    bit-identical across --jobs settings;
 *  - IntervalStats: window sums equal the end-of-run aggregates, and
 *    merge() of per-slice-group partial series is exact (the PR 4
 *    counter-merge discipline extended to time series).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workload/scenario.hh"

namespace cdir {
namespace {

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** All-private profile: every access hits the issuing thread's region. */
WorkloadParams
privateOnlyProfile(std::uint64_t seed = 11)
{
    WorkloadParams wl;
    wl.seed = seed;
    wl.instructionFraction = 0.0;
    wl.sharedDataFraction = 0.0;
    wl.codeBlocks = 8;
    wl.sharedBlocks = 8;
    wl.privateBlocksPerCore = 64;
    return wl;
}

/** Two-phase scenario on @p cores cores with @p events in phase 2. */
Scenario
twoPhase(std::size_t cores, std::vector<ScenarioEvent> events,
         std::uint64_t len = 2000, bool loop = false)
{
    Scenario sc;
    sc.name = "two-phase";
    sc.numCores = cores;
    sc.loop = loop;
    ScenarioPhase a;
    a.label = "a";
    a.accesses = len;
    a.workload = privateOnlyProfile(11);
    sc.phases.push_back(a);
    ScenarioPhase b;
    b.label = "b";
    b.startAccess = len;
    b.accesses = len;
    b.workload = privateOnlyProfile(11);
    b.events = std::move(events);
    sc.phases.push_back(b);
    return sc;
}

void
expectSameAccess(const MemAccess &a, const MemAccess &b, std::size_t i)
{
    EXPECT_EQ(a.core, b.core) << "record " << i;
    EXPECT_EQ(a.addr, b.addr) << "record " << i;
    EXPECT_EQ(a.write, b.write) << "record " << i;
    EXPECT_EQ(a.instruction, b.instruction) << "record " << i;
}

/**
 * Short-phase scenario file exercising every event kind: the
 * sweep/runExperiment-level determinism pins must cross phase
 * transitions (migrations, off/on-lining, a burst overlay, and the
 * loop wrap), not idle inside a preset's event-free first phase.
 */
std::string
eventfulScenarioFile()
{
    static const std::string path =
        tempPath("cdir_scenario_eventful.scn");
    std::ofstream out(path);
    out << "scenario eventful\n"
           "cores 4\n"
           "phase steady 3000\n"
           "  preset DB2\n"
           "phase storm 3000\n"
           "  preset DB2\n"
           "  set seed=77\n"
           "  migrate 0 2\n"
           "  migrate 1 3\n"
           "  offline 1\n"
           "  burst fraction=0.3 ring=64 producer=2\n"
           "phase recover 3000\n"
           "  preset DB2\n"
           "  online 1\n"
           "  migrate 0 0\n"
           "  migrate 1 1\n";
    return path;
}

/** Tiny under-provisioned CMP the sweep tests run on. */
CmpConfig
tinyConfig(const std::string &organization)
{
    CmpConfig cfg;
    cfg.numCores = 4;
    cfg.numSlices = 4;
    cfg.privateCache = CacheConfig{32, 2};
    cfg.directory.organization = organization;
    cfg.directory.ways = 4;
    cfg.directory.sets = 8;
    cfg.directory.trackedCacheAssoc = cfg.privateCache.assoc;
    return cfg;
}

// --- presets -----------------------------------------------------------------

TEST(ScenarioPresets, AtLeastFivePresetsAllRunnable)
{
    const auto &names = scenarioPresetNames();
    EXPECT_GE(names.size(), 5u);
    for (const std::string &name : names) {
        const Scenario sc = scenarioPreset(name, 8, 500);
        EXPECT_EQ(sc.name, name);
        ScenarioWorkload wl(sc);
        for (int i = 0; i < 4000; ++i) {
            ASSERT_FALSE(wl.exhausted()) << name;
            const MemAccess a = wl.next();
            ASSERT_LT(a.core, 8u) << name;
        }
    }
}

TEST(ScenarioPresets, UnknownNameThrows)
{
    EXPECT_THROW(scenarioPreset("no-such-scenario", 8),
                 std::invalid_argument);
    EXPECT_THROW(resolveScenario("no-such-file.scn", 8),
                 std::runtime_error);
}

TEST(ScenarioPresets, PresetsWorkOnOneCore)
{
    // Degenerate CMP: events must not strand or offline the only core.
    for (const std::string &name : scenarioPresetNames()) {
        const Scenario sc = scenarioPreset(name, 1, 200);
        ScenarioWorkload wl(sc);
        for (int i = 0; i < 1000; ++i)
            EXPECT_EQ(wl.next().core, 0u) << name;
    }
}

// --- ScenarioWorkload semantics ----------------------------------------------

TEST(ScenarioWorkload, TwoInstancesYieldIdenticalStreams)
{
    const Scenario sc = scenarioPreset("migration-storm", 4, 1000);
    ScenarioWorkload a(sc), b(sc);
    for (std::size_t i = 0; i < 20000; ++i)
        expectSameAccess(a.next(), b.next(), i);
}

TEST(ScenarioWorkload, LoopingScheduleIsExactlyPeriodic)
{
    Scenario sc = twoPhase(
        4, {{ScenarioEvent::Kind::Migrate, 0, 2}}, 1000, /*loop=*/true);
    const std::uint64_t period = sc.totalAccesses();
    ScenarioWorkload wl(sc);
    std::vector<MemAccess> first;
    for (std::uint64_t i = 0; i < period; ++i)
        first.push_back(wl.next());
    for (std::uint64_t i = 0; i < period; ++i)
        expectSameAccess(first[i], wl.next(), i);
}

TEST(ScenarioWorkload, NonLoopingScheduleExhausts)
{
    const Scenario sc = twoPhase(2, {}, 500, /*loop=*/false);
    ScenarioWorkload wl(sc);
    std::uint64_t emitted = 0;
    while (!wl.exhausted()) {
        wl.next();
        ++emitted;
    }
    EXPECT_EQ(emitted, sc.totalAccesses());
}

TEST(ScenarioWorkload, ShortTraceSegmentEndsTheScheduleCleanly)
{
    // Regression: a trace segment running dry inside the final phase of
    // a non-looping scenario must flip exhausted() — never fabricate a
    // zero access to satisfy an in-flight next().
    const std::string path = tempPath("cdir_scenario_segment.trace");
    const std::uint64_t records = 37;
    {
        std::ofstream out(path);
        for (std::uint64_t i = 0; i < records; ++i)
            out << (i % 2) << " " << std::hex << (0x100 + i) << std::dec
                << " r\n";
    }
    Scenario sc;
    sc.numCores = 2;
    sc.loop = false;
    ScenarioPhase phase;
    phase.label = "segment";
    phase.accesses = 1000; // longer than the trace
    phase.workload.tracePath = path;
    sc.phases.push_back(phase);

    ScenarioWorkload wl(sc);
    std::uint64_t emitted = 0;
    while (!wl.exhausted()) {
        const MemAccess a = wl.next();
        EXPECT_EQ(a.addr, 0x100 + emitted);
        ++emitted;
    }
    EXPECT_EQ(emitted, records);
    std::filesystem::remove(path);
}

TEST(ScenarioWorkload, DryTraceSegmentEndsABurstPhaseToo)
{
    // The segment bounds the phase even when the burst overlay could
    // keep emitting: a dry trace must never leave a phase running on
    // pure burst traffic to its declared length.
    const std::string path = tempPath("cdir_scenario_burst_seg.trace");
    const std::uint64_t records = 30;
    {
        std::ofstream out(path);
        for (std::uint64_t i = 0; i < records; ++i)
            out << (i % 2) << " " << std::hex << (0x200 + i) << std::dec
                << " r\n";
    }
    Scenario sc;
    sc.numCores = 4;
    sc.loop = false;
    ScenarioPhase phase;
    phase.label = "burst-segment";
    phase.accesses = 10'000; // far longer than the segment
    phase.workload.tracePath = path;
    phase.burst.fraction = 0.5;
    phase.burst.ringBlocks = 8;
    phase.burst.producer = 0;
    sc.phases.push_back(phase);

    ScenarioWorkload wl(sc);
    std::uint64_t emitted = 0, base = 0;
    while (!wl.exhausted()) {
        if (wl.next().addr < (BlockAddr{1} << 52))
            ++base;
        ++emitted;
    }
    EXPECT_EQ(base, records);       // every segment record delivered
    EXPECT_LT(emitted, 4 * records); // ~2x with fraction 0.5, never 10k
    std::filesystem::remove(path);
}

// --- windowed trace segments (offset / cursor) -------------------------------

/** Write @p records two-core text-trace records at addr 0x100 + i. */
std::string
writeSegmentTrace(const char *name, std::uint64_t records)
{
    const std::string path = tempPath(name);
    std::ofstream out(path);
    for (std::uint64_t i = 0; i < records; ++i)
        out << (i % 2) << " " << std::hex << (0x100 + i) << std::dec
            << " r\n";
    return path;
}

/** One-phase scenario replaying @p path with the given windowing. */
Scenario
segmentScenario(const std::string &path, std::uint64_t accesses,
                std::uint64_t offset, bool cursor)
{
    Scenario sc;
    sc.name = "windowed";
    sc.numCores = 2;
    sc.loop = false;
    ScenarioPhase phase;
    phase.label = "window";
    phase.accesses = accesses;
    phase.workload.tracePath = path;
    phase.traceOffset = offset;
    phase.traceCursor = cursor;
    sc.phases.push_back(phase);
    return sc;
}

TEST(ScenarioWindowedTrace, OffsetSkipsLeadingRecords)
{
    const std::string path =
        writeSegmentTrace("cdir_scenario_offset.trace", 40);
    ScenarioWorkload wl(
        segmentScenario(path, /*accesses=*/30, /*offset=*/10, false));
    for (std::uint64_t i = 0; i < 30; ++i) {
        ASSERT_FALSE(wl.exhausted());
        EXPECT_EQ(wl.next().addr, 0x100 + 10 + i) << "record " << i;
    }
    // Exactly the declared window: the schedule ends cleanly.
    EXPECT_TRUE(wl.exhausted());
    std::filesystem::remove(path);
}

TEST(ScenarioWindowedTrace, OffsetPastTheEndThrows)
{
    const std::string path =
        writeSegmentTrace("cdir_scenario_offpast.trace", 30);
    try {
        ScenarioWorkload wl(
            segmentScenario(path, /*accesses=*/10, /*offset=*/50, false));
        FAIL() << "offset past the end accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("past the end"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(ScenarioWindowedTrace, DryWindowedSegmentThrowsInsteadOfShifting)
{
    // A *plain* short segment ends its phase early (pinned above); a
    // windowed one running dry must fail loudly — ending early would
    // silently shift the declared schedule the offset promised.
    const std::string path =
        writeSegmentTrace("cdir_scenario_dry.trace", 30);
    ScenarioWorkload wl(
        segmentScenario(path, /*accesses=*/40, /*offset=*/10, false));
    std::uint64_t emitted = 0;
    std::vector<BlockAddr> delivered;
    try {
        while (!wl.exhausted()) {
            delivered.push_back(wl.next().addr);
            ++emitted;
        }
        FAIL() << "dry windowed segment ended the phase silently";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("ran dry"),
                  std::string::npos)
            << e.what();
    }
    // All 20 windowed records (30 - offset 10) are delivered before the
    // failure: the one-record lookahead *buffers* the dry-out error it
    // discovers while the final record is still in flight, exhausted()
    // stays false while the error is pending, and the following next()
    // call throws. Losing the last record to the lookahead was a bug.
    EXPECT_EQ(emitted, 20u);
    ASSERT_EQ(delivered.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(delivered[i], 0x100 + 10 + i) << "record " << i;
    std::filesystem::remove(path);
}

TEST(ScenarioWindowedTrace, DryOutErrorIsDeferredNotSwallowed)
{
    // Regression: the deferred error must not make the stream look
    // cleanly exhausted — a driver that politely checks exhausted()
    // before every next() still has to hit the throw.
    const std::string path =
        writeSegmentTrace("cdir_scenario_dry_defer.trace", 12);
    ScenarioWorkload wl(
        segmentScenario(path, /*accesses=*/20, /*offset=*/4, /*cursor=*/false));
    for (std::uint64_t i = 0; i < 8; ++i) {
        ASSERT_FALSE(wl.exhausted()) << "record " << i;
        EXPECT_EQ(wl.next().addr, 0x100 + 4 + i) << "record " << i;
    }
    // Every record of the window is out; the pending error keeps the
    // stream alive so the failure cannot be skipped...
    EXPECT_FALSE(wl.exhausted());
    EXPECT_THROW(wl.next(), std::runtime_error);
    // ...and stays pending: a retry throws again rather than reporting
    // a clean end.
    EXPECT_FALSE(wl.exhausted());
    EXPECT_THROW(wl.next(), std::runtime_error);
    std::filesystem::remove(path);
}

TEST(ScenarioWindowedTrace, CursorAdvancesTheWindowAcrossLoopPasses)
{
    // Looping two-phase schedule: a 20-access cursor segment plus a
    // synthetic phase. Each pass's segment window must continue where
    // the previous pass stopped (the cursor reader survives the loop
    // wrap), until the trace runs dry — which then fails loudly.
    const std::string path =
        writeSegmentTrace("cdir_scenario_cursor.trace", 100);
    Scenario sc = segmentScenario(path, 20, /*offset=*/0, /*cursor=*/true);
    sc.loop = true;
    ScenarioPhase synth;
    synth.label = "synth";
    synth.startAccess = 20;
    synth.accesses = 20;
    synth.workload = privateOnlyProfile();
    sc.phases.push_back(synth);

    ScenarioWorkload wl(sc);
    std::vector<BlockAddr> segment_addrs;
    try {
        for (;;) {
            const MemAccess a = wl.next();
            if (a.addr >= 0x100 && a.addr < 0x100 + 100)
                segment_addrs.push_back(a.addr);
        }
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("ran dry"),
                  std::string::npos)
            << e.what();
    }
    // Five passes of 20 records each, strictly consecutive across the
    // wraps: the whole 100-record trace delivered exactly once.
    ASSERT_EQ(segment_addrs.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(segment_addrs[i], 0x100 + i) << "record " << i;
    std::filesystem::remove(path);
}

TEST(ScenarioWindowedTrace, CursorAppliesTheOffsetOnceOnly)
{
    // offset=10 cursor: pass 1 reads records 10..29, pass 2 reads
    // 30..49 — the offset is consumed at the first open, not per entry.
    const std::string path =
        writeSegmentTrace("cdir_scenario_curoff.trace", 60);
    Scenario sc =
        segmentScenario(path, 20, /*offset=*/10, /*cursor=*/true);
    sc.loop = true;
    ScenarioPhase synth;
    synth.label = "synth";
    synth.startAccess = 20;
    synth.accesses = 10;
    synth.workload = privateOnlyProfile();
    sc.phases.push_back(synth);

    ScenarioWorkload wl(sc);
    std::vector<BlockAddr> segment_addrs;
    try {
        for (;;) {
            const MemAccess a = wl.next();
            if (a.addr >= 0x100 && a.addr < 0x100 + 60)
                segment_addrs.push_back(a.addr);
        }
    } catch (const std::runtime_error &) {
    }
    ASSERT_GE(segment_addrs.size(), 40u);
    for (std::uint64_t i = 0; i < 40; ++i)
        EXPECT_EQ(segment_addrs[i], 0x100 + 10 + i) << "record " << i;
    std::filesystem::remove(path);
}

TEST(ScenarioWorkload, MigrationMovesThePrivateFootprint)
{
    const std::uint64_t len = 3000;
    const Scenario sc =
        twoPhase(4, {{ScenarioEvent::Kind::Migrate, 0, 2}}, len);
    ScenarioWorkload wl(sc);

    std::set<BlockAddr> thread0_phase_a;
    for (std::uint64_t i = 0; i < len; ++i) {
        const MemAccess a = wl.next();
        if (a.core == 0)
            thread0_phase_a.insert(a.addr);
    }
    // Phase b: thread 0 issues from core 2, so core 0 goes silent and
    // core 2 touches thread 0's private region (stale-entry pressure).
    bool core2_touches_thread0 = false;
    for (std::uint64_t i = 0; i < len; ++i) {
        const MemAccess a = wl.next();
        EXPECT_NE(a.core, 0u);
        if (a.core == 2 && thread0_phase_a.count(a.addr))
            core2_touches_thread0 = true;
    }
    EXPECT_TRUE(core2_touches_thread0);
}

TEST(ScenarioWorkload, OfflineCoreIssuesNothing)
{
    const std::uint64_t len = 3000;
    const Scenario sc =
        twoPhase(4, {{ScenarioEvent::Kind::Offline, 3, 0}}, len);
    ScenarioWorkload wl(sc);
    bool saw3 = false;
    for (std::uint64_t i = 0; i < len; ++i)
        if (wl.next().core == 3)
            saw3 = true;
    EXPECT_TRUE(saw3) << "core 3 should issue while online";
    for (std::uint64_t i = 0; i < len; ++i)
        EXPECT_NE(wl.next().core, 3u);
}

TEST(ScenarioWorkload, BurstOverlayIsAProducerConsumerRing)
{
    Scenario sc;
    sc.numCores = 4;
    sc.loop = false;
    ScenarioPhase phase;
    phase.label = "burst";
    phase.accesses = 4000;
    phase.workload = privateOnlyProfile();
    phase.burst.fraction = 1.0; // every access is a burst access
    phase.burst.ringBlocks = 16;
    phase.burst.producer = 1;
    sc.phases.push_back(phase);

    ScenarioWorkload wl(sc);
    // Fan-out pattern: the producer writes a block, then each of the 3
    // other cores reads that same block.
    for (int round = 0; round < 100; ++round) {
        const MemAccess write = wl.next();
        EXPECT_EQ(write.core, 1u);
        EXPECT_TRUE(write.write);
        for (int c = 0; c < 3; ++c) {
            const MemAccess read = wl.next();
            EXPECT_EQ(read.addr, write.addr);
            EXPECT_FALSE(read.write);
            EXPECT_NE(read.core, 1u);
        }
    }
}

// --- validation --------------------------------------------------------------

TEST(ScenarioValidate, RejectsOverlappingPhases)
{
    Scenario sc = twoPhase(4, {});
    sc.phases[1].startAccess -= 100;
    try {
        sc.validate();
        FAIL() << "overlap accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("overlaps"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ScenarioValidate, RejectsGapsBetweenPhases)
{
    Scenario sc = twoPhase(4, {});
    sc.phases[1].startAccess += 100;
    try {
        sc.validate();
        FAIL() << "gap accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("gap"), std::string::npos)
            << e.what();
    }
}

TEST(ScenarioValidate, RejectsBadCoreIds)
{
    EXPECT_THROW(ScenarioWorkload(twoPhase(
                     4, {{ScenarioEvent::Kind::Migrate, 9, 0}})),
                 std::invalid_argument);
    EXPECT_THROW(ScenarioWorkload(twoPhase(
                     4, {{ScenarioEvent::Kind::Migrate, 0, 9}})),
                 std::invalid_argument);
    EXPECT_THROW(ScenarioWorkload(twoPhase(
                     4, {{ScenarioEvent::Kind::Offline, 4, 0}})),
                 std::invalid_argument);
}

TEST(ScenarioValidate, RejectsStarvedSchedules)
{
    // Every thread mapped to the one offline core: nothing can issue.
    EXPECT_THROW(
        ScenarioWorkload(twoPhase(
            2, {{ScenarioEvent::Kind::Migrate, 0, 1},
                {ScenarioEvent::Kind::Migrate, 1, 1},
                {ScenarioEvent::Kind::Offline, 1, 0}})),
        std::invalid_argument);
    // Offline producer cannot feed the burst ring.
    Scenario sc = twoPhase(4, {{ScenarioEvent::Kind::Offline, 1, 0}});
    sc.phases[1].burst.fraction = 0.5;
    sc.phases[1].burst.producer = 1;
    EXPECT_THROW(ScenarioWorkload{sc}, std::invalid_argument);
}

TEST(ScenarioValidate, RejectsEmptyPhasesAndFootprints)
{
    Scenario sc = twoPhase(4, {});
    sc.phases[1].accesses = 0;
    EXPECT_THROW(sc.validate(), std::invalid_argument);

    Scenario sc2 = twoPhase(4, {});
    sc2.phases[0].workload.privateBlocksPerCore = 0;
    EXPECT_THROW(sc2.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsWindowingWithoutATraceSegment)
{
    Scenario offset = twoPhase(4, {});
    offset.phases[0].traceOffset = 100; // synthetic phase: meaningless
    EXPECT_THROW(offset.validate(), std::invalid_argument);

    Scenario cursor = twoPhase(4, {});
    cursor.phases[1].traceCursor = true;
    EXPECT_THROW(cursor.validate(), std::invalid_argument);
}

// --- text format -------------------------------------------------------------

constexpr const char *kScenarioText =
    "# comment line\n"
    "scenario parsed-example\n"
    "cores 4\n"
    "loop off\n"
    "phase warm 1000\n"
    "  preset DB2\n"
    "  set shared-blocks=512 write-frac=0.5\n"
    "phase shift 1000 500   # explicit start\n"
    "  preset synthetic\n"
    "  migrate 0 2\n"
    "  offline 3\n"
    "  burst fraction=0.25 ring=32 producer=2\n"
    "phase calm 500\n"
    "  online 3\n";

TEST(ScenarioParser, ParsesTheFullGrammar)
{
    const Scenario sc = parseScenarioText(kScenarioText, "inline");
    EXPECT_EQ(sc.name, "parsed-example");
    EXPECT_EQ(sc.numCores, 4u);
    EXPECT_FALSE(sc.loop);
    ASSERT_EQ(sc.phases.size(), 3u);

    EXPECT_EQ(sc.phases[0].label, "warm");
    EXPECT_EQ(sc.phases[0].accesses, 1000u);
    EXPECT_EQ(sc.phases[0].workload.sharedBlocks, 512u);
    EXPECT_DOUBLE_EQ(sc.phases[0].workload.writeFraction, 0.5);

    EXPECT_EQ(sc.phases[1].startAccess, 1000u);
    EXPECT_EQ(sc.phases[1].accesses, 500u);
    ASSERT_EQ(sc.phases[1].events.size(), 2u);
    EXPECT_EQ(sc.phases[1].events[0].kind, ScenarioEvent::Kind::Migrate);
    EXPECT_EQ(sc.phases[1].events[0].from, 0u);
    EXPECT_EQ(sc.phases[1].events[0].to, 2u);
    EXPECT_EQ(sc.phases[1].events[1].kind, ScenarioEvent::Kind::Offline);
    EXPECT_DOUBLE_EQ(sc.phases[1].burst.fraction, 0.25);
    EXPECT_EQ(sc.phases[1].burst.ringBlocks, 32u);
    EXPECT_EQ(sc.phases[1].burst.producer, 2u);

    EXPECT_EQ(sc.phases[2].startAccess, 1500u);

    // The parsed scenario actually runs.
    ScenarioWorkload wl(sc);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(wl.next().core, 4u);
}

void
expectParseError(const std::string &text, const std::string &needle)
{
    try {
        parseScenarioText(text, "bad");
        FAIL() << "accepted: " << text;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "error was: " << e.what();
    }
}

TEST(ScenarioParser, RejectsUnknownDirectives)
{
    expectParseError("cores 4\nphase a 100\n  teleport 0 1\n",
                     "bad:3: unknown directive 'teleport'");
    expectParseError("cores 4\nphase a 100\n  set nonsense=1\n",
                     "bad:3: unknown knob");
}

TEST(ScenarioParser, RejectsBadCoreIds)
{
    expectParseError("cores 4\nphase a 100\n  migrate 7 0\n",
                     "bad:3: core id 7 out of range");
    expectParseError("cores 4\nphase a 100\n  offline 4\n",
                     "bad:3: core id 4 out of range");
    expectParseError(
        "cores 2\nphase a 100\n  burst fraction=0.5 producer=3\n",
        "bad:3: core id 3 out of range");
}

TEST(ScenarioParser, ParsesTraceWindowOptions)
{
    const Scenario sc = parseScenarioText(
        "cores 2\n"
        "phase a 100\n"
        "  trace warm.trace\n"
        "phase b 100\n"
        "  trace long.trace offset=5000 cursor\n",
        "inline");
    ASSERT_EQ(sc.phases.size(), 2u);
    EXPECT_EQ(sc.phases[0].workload.tracePath, "warm.trace");
    EXPECT_EQ(sc.phases[0].traceOffset, 0u);
    EXPECT_FALSE(sc.phases[0].traceCursor);
    EXPECT_EQ(sc.phases[1].workload.tracePath, "long.trace");
    EXPECT_EQ(sc.phases[1].traceOffset, 5000u);
    EXPECT_TRUE(sc.phases[1].traceCursor);
}

TEST(ScenarioParser, RejectsUnknownTraceOptions)
{
    expectParseError("cores 2\nphase a 100\n  trace t.trace speed=9\n",
                     "bad:3: unknown trace option 'speed=9'");
    expectParseError("cores 2\nphase a 100\n  trace t.trace offset=ten\n",
                     "malformed trace offset");
}

TEST(ScenarioParser, RejectsOverlappingPhasesAndGaps)
{
    expectParseError("cores 4\nphase a 100\nphase b 50 100\n",
                     "overlaps");
    expectParseError("cores 4\nphase a 100\nphase b 200 100\n", "gap");
}

TEST(ScenarioParser, RejectsStructuralMistakes)
{
    expectParseError("migrate 0 1\n", "outside a phase");
    expectParseError("phase a 100\ncores 4\n",
                     "'cores' must precede the first phase");
    expectParseError("cores 4\nphase a ten\n", "malformed phase length");
    expectParseError("cores 4\nloop maybe\nphase a 10\n",
                     "loop takes 'on' or 'off'");
}

TEST(ScenarioParser, FileRoundTripAndResolve)
{
    const std::string path = tempPath("cdir_scenario_test.scn");
    {
        std::ofstream out(path);
        out << kScenarioText;
    }
    const Scenario sc = parseScenarioFile(path);
    EXPECT_EQ(sc.name, "parsed-example");
    EXPECT_EQ(sc.phases.size(), 3u);

    // resolveScenario accepts files, and rejects a file needing more
    // cores than the system has (mirroring the trace core bound).
    EXPECT_EQ(resolveScenario(path, 8).numCores, 4u);
    EXPECT_THROW(resolveScenario(path, 2), std::runtime_error);
    std::filesystem::remove(path);
}

// --- scenarios through the trace pipeline ------------------------------------

TEST(ScenarioTrace, RecordThenReplayIsBitIdentical)
{
    const std::string path = tempPath("cdir_scenario_rec.ctr");
    const Scenario sc = scenarioPreset("migration-storm", 4, 1500);
    const CmpConfig cfg = tinyConfig("Cuckoo");

    CmpSystem live(cfg);
    {
        ScenarioWorkload source(sc);
        const auto sink = makeTraceSink(path, /*binary=*/true);
        TraceRecorder recorder(source, *sink);
        live.run(recorder, 12000);
        sink->close();
    }

    CmpSystem replayed(cfg);
    {
        const auto reader =
            makeTraceReader(path, TraceReadOptions{cfg.numCores, true});
        replayed.run(*reader, ~std::uint64_t{0});
    }

    EXPECT_EQ(live.stats().accesses, replayed.stats().accesses);
    EXPECT_EQ(live.stats().cacheMisses, replayed.stats().cacheMisses);
    EXPECT_EQ(live.stats().sharingInvalidations,
              replayed.stats().sharingInvalidations);
    EXPECT_EQ(live.stats().forcedInvalidations,
              replayed.stats().forcedInvalidations);
    for (std::size_t s = 0; s < live.numSlices(); ++s) {
        EXPECT_EQ(live.slice(s).stats().insertions,
                  replayed.slice(s).stats().insertions)
            << "slice " << s;
        EXPECT_EQ(live.slice(s).validEntries(),
                  replayed.slice(s).validEntries())
            << "slice " << s;
    }
    for (std::size_t c = 0; c < live.numCaches(); ++c)
        EXPECT_EQ(live.cache(c).residentAddresses(),
                  replayed.cache(c).residentAddresses())
            << "cache " << c;
    std::filesystem::remove(path);
}

// --- runExperiment / sweep integration ---------------------------------------

ExperimentOptions
scenarioOptions()
{
    ExperimentOptions opts;
    opts.warmupAccesses = 2000;
    opts.measureAccesses = 12000;
    opts.occupancySampleEvery = 500;
    opts.intervalAccesses = 3000;
    return opts;
}

void
expectSameIntervals(const IntervalStats &a, const IntervalStats &b,
                    const std::string &label)
{
    EXPECT_EQ(a.intervalAccesses, b.intervalAccesses) << label;
    ASSERT_EQ(a.windows.size(), b.windows.size()) << label;
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
        const IntervalRecord &ra = a.windows[w];
        const IntervalRecord &rb = b.windows[w];
        const std::string at = label + " window " + std::to_string(w);
        EXPECT_EQ(ra.accesses, rb.accesses) << at;
        EXPECT_EQ(ra.cacheMisses, rb.cacheMisses) << at;
        EXPECT_EQ(ra.insertions, rb.insertions) << at;
        EXPECT_EQ(ra.attemptSum, rb.attemptSum) << at;
        EXPECT_EQ(ra.insertionAttemptCount, rb.insertionAttemptCount)
            << at;
        EXPECT_EQ(ra.forcedEvictions, rb.forcedEvictions) << at;
        EXPECT_EQ(ra.sharingInvalidations, rb.sharingInvalidations) << at;
        EXPECT_EQ(ra.forcedInvalidations, rb.forcedInvalidations) << at;
        EXPECT_EQ(ra.occupiedEntries, rb.occupiedEntries) << at;
        EXPECT_EQ(ra.capacityEntries, rb.capacityEntries) << at;
    }
}

TEST(ScenarioExperiment, ScenarioSpecDrivesACell)
{
    const ExperimentResult result =
        runExperiment(tinyConfig("Cuckoo"),
                      scenarioWorkloadParams("producer-ring"),
                      scenarioOptions());
    EXPECT_EQ(result.workload, "producer-ring");
    EXPECT_EQ(result.system.accesses, 12000u);
    EXPECT_FALSE(result.intervals.empty());
}

TEST(ScenarioExperiment, TraceAndScenarioAreMutuallyExclusive)
{
    WorkloadParams both = scenarioWorkloadParams("producer-ring");
    both.tracePath = "whatever.ctr";
    EXPECT_THROW(runExperiment(tinyConfig("Cuckoo"), both),
                 std::runtime_error);
}

TEST(ScenarioExperiment, IntervalWindowsSumToAggregates)
{
    // The eventful file's 9000-access schedule means warmup + measure
    // cross every phase and the loop wrap inside the measured region.
    const ExperimentResult result =
        runExperiment(tinyConfig("Sparse"),
                      scenarioWorkloadParams(eventfulScenarioFile()),
                      scenarioOptions());
    ASSERT_EQ(result.intervals.windows.size(), 4u);
    IntervalRecord total;
    for (const IntervalRecord &rec : result.intervals.windows)
        total.merge(rec);
    EXPECT_EQ(total.accesses, result.system.accesses);
    EXPECT_EQ(total.cacheMisses, result.system.cacheMisses);
    EXPECT_EQ(total.insertions, result.directory.insertions);
    EXPECT_EQ(total.forcedEvictions, result.directory.forcedEvictions);
    EXPECT_EQ(total.sharingInvalidations,
              result.system.sharingInvalidations);
    EXPECT_EQ(total.forcedInvalidations,
              result.system.forcedInvalidations);
    EXPECT_EQ(total.attemptSum,
              static_cast<std::uint64_t>(
                  result.directory.insertionAttempts.sum()));
    EXPECT_EQ(total.insertionAttemptCount,
              result.directory.insertionAttempts.count());
}

TEST(ScenarioExperiment, TelemetryOffCollectsNothingAndChangesNothing)
{
    ExperimentOptions with = scenarioOptions();
    ExperimentOptions without = scenarioOptions();
    without.intervalAccesses = 0;
    const WorkloadParams wl = scenarioWorkloadParams("phase-oltp-dss");
    const ExperimentResult a =
        runExperiment(tinyConfig("Cuckoo"), wl, with);
    const ExperimentResult b =
        runExperiment(tinyConfig("Cuckoo"), wl, without);
    EXPECT_TRUE(b.intervals.empty());
    EXPECT_FALSE(a.intervals.empty());
    // Counter totals agree; only the occupancy-mean sampling alignment
    // may differ (documented), so compare the exact counters.
    EXPECT_EQ(a.system.accesses, b.system.accesses);
    EXPECT_EQ(a.system.cacheMisses, b.system.cacheMisses);
    EXPECT_EQ(a.directory.insertions, b.directory.insertions);
    EXPECT_EQ(a.directory.forcedEvictions, b.directory.forcedEvictions);
    EXPECT_EQ(a.system.forcedInvalidations, b.system.forcedInvalidations);
}

/** The acceptance pin: scenario sweeps are bit-identical across
 *  --jobs settings, time series included. The axis mixes
 *  a preset with the eventful short-phase file, so the measured region
 *  crosses migrations, off/on-lining, the burst overlay, and the loop
 *  wrap — not just a stationary first phase. */
TEST(ScenarioSweep, TimeSeriesBitIdenticalAcrossJobs)
{
    SweepSpec spec;
    spec.options("", scenarioOptions());
    appendScenarioWorkloads(
        spec, eventfulScenarioFile() + ",producer-ring");
    spec.config("Cuckoo", tinyConfig("Cuckoo"));
    spec.config("Sparse", tinyConfig("Sparse"));

    const std::vector<SweepRecord> serial =
        SweepRunner(SweepOptions{1, ""}).run(spec);
    const std::vector<SweepRecord> parallel =
        SweepRunner(SweepOptions{4, ""}).run(spec);
    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const std::string label = serial[i].configLabel + "/" +
                                  serial[i].workloadLabel;
        EXPECT_EQ(serial[i].result.system.accesses,
                  parallel[i].result.system.accesses)
            << label;
        EXPECT_EQ(serial[i].result.avgOccupancy,
                  parallel[i].result.avgOccupancy)
            << label;
        EXPECT_EQ(serial[i].result.forcedInvalidationRate,
                  parallel[i].result.forcedInvalidationRate)
            << label;
        expectSameIntervals(serial[i].result.intervals,
                            parallel[i].result.intervals, label);
    }
}

TEST(ScenarioSweep, AppendScenarioWorkloadsExpandsAllAndRejectsUnknown)
{
    SweepSpec spec;
    appendScenarioWorkloads(spec, "all");
    EXPECT_EQ(spec.workloads().size(), scenarioPresetNames().size());
    SweepSpec bad;
    EXPECT_THROW(appendScenarioWorkloads(bad, "definitely-not-a-preset"),
                 std::runtime_error);
    SweepSpec empty;
    EXPECT_THROW(appendScenarioWorkloads(empty, ","),
                 std::runtime_error);

    // A file needing more cores than the grid's CMPs is rejected up
    // front (otherwise every cell would throw and be dropped, leaving
    // an empty table that exits 0).
    SweepSpec narrow;
    EXPECT_THROW(
        appendScenarioWorkloads(narrow, eventfulScenarioFile(), 2),
        std::runtime_error);
    EXPECT_NO_THROW(
        appendScenarioWorkloads(narrow, eventfulScenarioFile(), 4));
    // Presets adapt to any core count, so the bound never rejects them.
    EXPECT_NO_THROW(appendScenarioWorkloads(narrow, "diurnal", 2));

    // "all" composes with extra items instead of requiring sole use.
    SweepSpec mixed;
    appendScenarioWorkloads(mixed,
                            "all," + eventfulScenarioFile());
    EXPECT_EQ(mixed.workloads().size(),
              scenarioPresetNames().size() + 1);

    // Same-stem files get full-path labels (the trace-axis hardening).
    const std::string dir_a =
        tempPath("cdir_scn_a"), dir_b = tempPath("cdir_scn_b");
    std::filesystem::create_directories(dir_a);
    std::filesystem::create_directories(dir_b);
    const std::string file_a = dir_a + "/night.scn";
    const std::string file_b = dir_b + "/night.scn";
    for (const std::string &file : {file_a, file_b}) {
        std::ofstream out(file);
        out << "cores 4\nphase a 100\n";
    }
    SweepSpec collide;
    appendScenarioWorkloads(collide, file_a + "," + file_b);
    ASSERT_EQ(collide.workloads().size(), 2u);
    EXPECT_EQ(collide.workloads()[0].label, file_a);
    EXPECT_EQ(collide.workloads()[1].label, file_b);
    std::filesystem::remove_all(dir_a);
    std::filesystem::remove_all(dir_b);
}

// --- IntervalStats::merge ----------------------------------------------------

/** Per-slice-group partial series merged == the whole-system series:
 *  the exactness property DirectoryStats/CmpStats::merge pins for the
 *  end-of-run counters (PR 4), extended to interval telemetry. */
TEST(IntervalStatsMerge, PerSliceGroupPartialsMergeExactly)
{
    const CmpConfig cfg = tinyConfig("Sparse");
    CmpSystem system(cfg);
    ScenarioWorkload source(
        scenarioPreset("migration-storm", cfg.numCores, 1500));

    const std::uint64_t interval = 2000;
    const std::size_t groups = 2;
    IntervalStats whole;
    whole.intervalAccesses = interval;
    std::vector<IntervalStats> partial(groups);
    for (auto &p : partial)
        p.intervalAccesses = interval;

    std::vector<std::uint64_t> prev_insertions(system.numSlices(), 0);
    std::vector<std::uint64_t> prev_evictions(system.numSlices(), 0);
    std::uint64_t prev_misses = 0;
    for (int w = 0; w < 6; ++w) {
        system.run(source, interval);
        IntervalRecord whole_rec;
        whole_rec.cacheMisses = system.stats().cacheMisses - prev_misses;
        prev_misses = system.stats().cacheMisses;
        std::vector<IntervalRecord> group_rec(groups);
        // System-level counters live in group 0's partial; per-slice
        // counters split by home slice. merge() must not care.
        group_rec[0].cacheMisses = whole_rec.cacheMisses;
        for (std::size_t s = 0; s < system.numSlices(); ++s) {
            const DirectoryStats &stats = system.slice(s).stats();
            IntervalRecord &rec = group_rec[s % groups];
            rec.insertions += stats.insertions - prev_insertions[s];
            rec.forcedEvictions +=
                stats.forcedEvictions - prev_evictions[s];
            rec.occupiedEntries += system.slice(s).validEntries();
            rec.capacityEntries += system.slice(s).capacity();
            prev_insertions[s] = stats.insertions;
            prev_evictions[s] = stats.forcedEvictions;
        }
        for (const IntervalRecord &rec : group_rec) {
            whole_rec.insertions += rec.insertions;
            whole_rec.forcedEvictions += rec.forcedEvictions;
            whole_rec.occupiedEntries += rec.occupiedEntries;
            whole_rec.capacityEntries += rec.capacityEntries;
        }
        whole.windows.push_back(whole_rec);
        for (std::size_t g = 0; g < groups; ++g)
            partial[g].windows.push_back(group_rec[g]);
    }

    IntervalStats merged;
    for (const IntervalStats &p : partial)
        merged.merge(p);
    expectSameIntervals(whole, merged, "per-slice-group merge");
}

TEST(IntervalStatsMerge, RejectsMismatchedWindowCuts)
{
    IntervalStats a, b;
    a.intervalAccesses = 10'000;
    b.intervalAccesses = 50'000;
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(IntervalStatsMerge, MergeIntoEmptyAdoptsAndExtends)
{
    IntervalStats longer;
    longer.intervalAccesses = 100;
    longer.windows.resize(3);
    longer.windows[2].insertions = 7;

    IntervalStats merged;
    merged.merge(longer);
    EXPECT_EQ(merged.intervalAccesses, 100u);
    ASSERT_EQ(merged.windows.size(), 3u);
    EXPECT_EQ(merged.windows[2].insertions, 7u);

    IntervalStats shorter;
    shorter.intervalAccesses = 100;
    shorter.windows.resize(1);
    shorter.windows[0].insertions = 5;
    merged.merge(shorter);
    ASSERT_EQ(merged.windows.size(), 3u);
    EXPECT_EQ(merged.windows[0].insertions, 5u);
    EXPECT_EQ(merged.windows[2].insertions, 7u);
}

} // namespace
} // namespace cdir
