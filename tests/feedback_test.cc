/**
 * @file
 * Tests for the closed-loop feedback subsystem:
 *
 *  - trigger grammar units (parse/format/evaluate, timing metadata);
 *  - scenario text-format `probe` / `until` / `when` directives and
 *    their rejection cases;
 *  - event-triggered scenarios: triggers fire at probe boundaries,
 *    never-firing triggers change nothing, firings during warmup are
 *    honoured, and every closed-loop stat — counters, firing log,
 *    digest — is bit-identical across --jobs settings;
 *  - a recorded closed-loop run replays as an ordinary trace with
 *    bit-identical system state (the trace embodies every decision);
 *  - latency triggers without a cost model fail loudly up front;
 *  - FleetWorkload semantics (determinism, churn, storms, the diurnal
 *    wave, the active-tenant pin) and the fleet/slo-ramp spec grammar;
 *  - the SLO-ramp controller: escalation, the knee/back-off decision,
 *    one-decision-per-snapshot, and campaign JSON round-tripping of
 *    the new ExperimentResult fields.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/probe.hh"
#include "sim/sweep.hh"
#include "workload/feedback.hh"
#include "workload/fleet.hh"
#include "workload/scenario.hh"
#include "workload/trace.hh"

namespace cdir {
namespace {

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** Tiny under-provisioned CMP (same shape as scenario_test's). */
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

/** Triggered two-phase scenario file: the fill phase ends early when
 *  aggregate occupancy crosses @p threshold (timeout cap included). */
std::string
triggeredScenarioFile(const char *name, double threshold,
                      std::uint64_t probe_every = 500)
{
    const std::string path = tempPath(name);
    std::ofstream out(path);
    out << "scenario triggered\n"
           "cores 4\n"
           "probe " << probe_every << "\n"
           "phase fill 100000\n"
           "  preset DB2\n"
           "  until occupancy>" << threshold << "\n"
           "phase after 100000\n"
           "  preset DB2\n"
           "  set seed=99\n";
    return path;
}

ExperimentOptions
feedbackOptions()
{
    ExperimentOptions opts;
    opts.warmupAccesses = 2000;
    opts.measureAccesses = 12000;
    opts.occupancySampleEvery = 500;
    return opts;
}

void
expectSameCoreStats(const ExperimentResult &a, const ExperimentResult &b,
                    const std::string &label)
{
    EXPECT_EQ(a.system.accesses, b.system.accesses) << label;
    EXPECT_EQ(a.system.cacheMisses, b.system.cacheMisses) << label;
    EXPECT_EQ(a.system.forcedInvalidations, b.system.forcedInvalidations)
        << label;
    EXPECT_EQ(a.directory.insertions, b.directory.insertions) << label;
    EXPECT_EQ(a.avgOccupancy, b.avgOccupancy) << label;
    EXPECT_EQ(a.feedbackEvents, b.feedbackEvents) << label;
    EXPECT_EQ(a.feedbackDigest, b.feedbackDigest) << label;
}

// --- trigger grammar ---------------------------------------------------------

TEST(TriggerGrammar, ParsesEveryMetricAndBothOps)
{
    PhaseTrigger t = parsePhaseTrigger("occupancy>0.8");
    EXPECT_EQ(t.metric, TriggerMetric::Occupancy);
    EXPECT_TRUE(t.greater);
    EXPECT_DOUBLE_EQ(t.threshold, 0.8);

    t = parsePhaseTrigger("p99<120");
    EXPECT_EQ(t.metric, TriggerMetric::P99);
    EXPECT_FALSE(t.greater);
    EXPECT_DOUBLE_EQ(t.threshold, 120.0);

    EXPECT_EQ(parsePhaseTrigger("p50>10").metric, TriggerMetric::P50);
    EXPECT_EQ(parsePhaseTrigger("forced-per-1k>2.5").metric,
              TriggerMetric::ForcedPer1k);
    EXPECT_EQ(parsePhaseTrigger("attempts>1.5").metric,
              TriggerMetric::Attempts);
}

TEST(TriggerGrammar, FormatRoundTrips)
{
    for (const char *text :
         {"occupancy>0.8", "p99<120", "attempts>1.5", "forced-per-1k>2"}) {
        const PhaseTrigger t = parsePhaseTrigger(text);
        const PhaseTrigger back = parsePhaseTrigger(formatPhaseTrigger(t));
        EXPECT_EQ(back.metric, t.metric) << text;
        EXPECT_EQ(back.greater, t.greater) << text;
        EXPECT_DOUBLE_EQ(back.threshold, t.threshold) << text;
    }
}

TEST(TriggerGrammar, RejectsMalformedTriggers)
{
    EXPECT_THROW(parsePhaseTrigger("occupancy"), std::invalid_argument);
    EXPECT_THROW(parsePhaseTrigger("occupancy=0.5"),
                 std::invalid_argument);
    EXPECT_THROW(parsePhaseTrigger("bogus>1"), std::invalid_argument);
    EXPECT_THROW(parsePhaseTrigger("occupancy>"), std::invalid_argument);
    EXPECT_THROW(parsePhaseTrigger("occupancy>abc"),
                 std::invalid_argument);
    EXPECT_THROW(parsePhaseTrigger("occupancy>-0.5"),
                 std::invalid_argument);
    EXPECT_THROW(parsePhaseTrigger("occupancy>1.5"),
                 std::invalid_argument);
    EXPECT_THROW(parsePhaseTrigger("p99>1<2"), std::invalid_argument);
}

TEST(TriggerGrammar, RejectsNonFiniteThresholds)
{
    // "nan" passes both range checks (every comparison is false), and
    // an infinite threshold can never fire or always fires.
    for (const char *text : {"occupancy>nan", "p99<inf", "attempts>-nan",
                             "forced-per-1k>infinity", "p50>1e999"}) {
        try {
            parsePhaseTrigger(text);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("malformed threshold"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TriggerGrammar, TimingMetadataAndEvaluation)
{
    EXPECT_FALSE(triggerMetricNeedsTiming(TriggerMetric::Occupancy));
    EXPECT_FALSE(triggerMetricNeedsTiming(TriggerMetric::ForcedPer1k));
    EXPECT_FALSE(triggerMetricNeedsTiming(TriggerMetric::Attempts));
    EXPECT_TRUE(triggerMetricNeedsTiming(TriggerMetric::P50));
    EXPECT_TRUE(triggerMetricNeedsTiming(TriggerMetric::P99));

    ProbeSnapshot snap;
    snap.sequence = 1;
    snap.occupancy = 0.7;
    snap.forcedPer1k = 3.0;
    snap.windowP99 = 150;
    EXPECT_TRUE(
        triggerSatisfied(parsePhaseTrigger("occupancy>0.5"), snap));
    EXPECT_FALSE(
        triggerSatisfied(parsePhaseTrigger("occupancy>0.7"), snap));
    EXPECT_TRUE(
        triggerSatisfied(parsePhaseTrigger("occupancy<0.8"), snap));
    EXPECT_TRUE(
        triggerSatisfied(parsePhaseTrigger("forced-per-1k>2"), snap));
    EXPECT_TRUE(triggerSatisfied(parsePhaseTrigger("p99>100"), snap));
    EXPECT_FALSE(triggerSatisfied(parsePhaseTrigger("p99<100"), snap));
}

// --- scenario text format ----------------------------------------------------

TEST(TriggerParser, ParsesProbeUntilAndWhen)
{
    const Scenario sc = parseScenarioText("scenario t\n"
                                          "cores 2\n"
                                          "probe 250\n"
                                          "phase a 1000\n"
                                          "  until occupancy>0.5\n"
                                          "  when attempts>2\n"
                                          "phase b 1000\n",
                                          "inline");
    EXPECT_EQ(sc.probeEvery, 250u);
    ASSERT_EQ(sc.phases.size(), 2u);
    ASSERT_EQ(sc.phases[0].triggers.size(), 2u);
    EXPECT_EQ(sc.phases[0].triggers[0].metric, TriggerMetric::Occupancy);
    EXPECT_EQ(sc.phases[0].triggers[1].metric, TriggerMetric::Attempts);
    EXPECT_TRUE(sc.phases[1].triggers.empty());
}

TEST(TriggerParser, RejectionsCarryLineContext)
{
    const auto expectFails = [](const char *text, const char *needle) {
        try {
            parseScenarioText(text, "bad");
            FAIL() << "expected parse failure for: " << text;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    expectFails("probe 0\n", "probe interval");
    expectFails("until occupancy>0.5\n", "outside a phase");
    expectFails("cores 2\nphase a 10\n  until bogus>1\n", "bogus");
    expectFails("cores 2\nphase a 10\n  until occupancy~0.5\n", "bad:3");
}

TEST(TriggerParser, ConsumerInterfaceReflectsTriggers)
{
    const Scenario plain = parseScenarioText("cores 2\n"
                                             "phase a 100\n"
                                             "  preset DB2\n",
                                             "plain");
    ScenarioWorkload open(plain);
    EXPECT_FALSE(open.wantsFeedback());
    EXPECT_FALSE(open.needsTiming());
    EXPECT_EQ(open.probeInterval(), kDefaultProbeEvery);

    const Scenario timed = parseScenarioText("cores 2\n"
                                             "probe 100\n"
                                             "phase a 100\n"
                                             "  preset DB2\n"
                                             "  when p99>50\n",
                                             "timed");
    ScenarioWorkload closed(timed);
    EXPECT_TRUE(closed.wantsFeedback());
    EXPECT_TRUE(closed.needsTiming());
    EXPECT_EQ(closed.probeInterval(), 100u);
    EXPECT_EQ(closed.feedbackEventCount(), 0u);
    EXPECT_EQ(closed.feedbackDigest(), fnv1aInit());
}

// --- event-triggered scenarios -----------------------------------------------

TEST(TriggeredScenario, TriggerFiresOnAProbeBoundary)
{
    const Scenario sc = parseScenarioFile(
        triggeredScenarioFile("cdir_fb_fires.scn", 0.3, 250));
    const CmpConfig cfg = tinyConfig("Cuckoo");

    CmpSystem system(cfg);
    SystemProbe probe(250);
    system.setProbe(&probe);
    ScenarioWorkload workload(sc);
    ASSERT_TRUE(workload.wantsFeedback());
    workload.attachFeedback(probe.channel());
    system.run(workload, 20000);

    ASSERT_GE(workload.firings().size(), 1u);
    const auto &firing = workload.firings().front();
    EXPECT_EQ(firing.phase, 0u);
    EXPECT_EQ(firing.trigger, 0u);
    // The firing snapshot sits exactly on the probe grid.
    EXPECT_EQ(firing.accessIndex % 250, 0u);
    EXPECT_EQ(workload.feedbackEventCount(), workload.firings().size());
    EXPECT_NE(workload.feedbackDigest(), fnv1aInit());
}

TEST(TriggeredScenario, NeverFiringTriggerChangesNothing)
{
    // Mean insertion attempts can never reach a million (the cuckoo
    // path budget is tiny), so the triggered schedule must behave
    // exactly like the same schedule without the trigger line.
    const std::string triggered = tempPath("cdir_fb_never.scn");
    const std::string plain = tempPath("cdir_fb_plain.scn");
    {
        std::ofstream out(triggered);
        out << "cores 4\nprobe 500\nphase a 100000\n  preset DB2\n"
               "  until attempts>1000000\n";
    }
    {
        std::ofstream out(plain);
        out << "cores 4\nphase a 100000\n  preset DB2\n";
    }
    const ExperimentResult with =
        runExperiment(tinyConfig("Sparse"),
                      scenarioWorkloadParams(triggered),
                      feedbackOptions());
    const ExperimentResult without = runExperiment(
        tinyConfig("Sparse"), scenarioWorkloadParams(plain),
        feedbackOptions());
    EXPECT_EQ(with.feedbackEvents, 0u);
    EXPECT_EQ(with.feedbackDigest, fnv1aInit());
    EXPECT_EQ(with.system.accesses, without.system.accesses);
    EXPECT_EQ(with.system.cacheMisses, without.system.cacheMisses);
    EXPECT_EQ(with.directory.insertions, without.directory.insertions);
    EXPECT_EQ(with.system.forcedInvalidations,
              without.system.forcedInvalidations);
}

TEST(TriggeredScenario, FiringDuringWarmupIsHonoured)
{
    // A low threshold crosses within the 2000-access warmup; the
    // firing must be taken (phase advances) and counted.
    const WorkloadParams wl = scenarioWorkloadParams(
        triggeredScenarioFile("cdir_fb_warm.scn", 0.02, 250));
    const ExperimentResult one =
        runExperiment(tinyConfig("Cuckoo"), wl, feedbackOptions());
    EXPECT_GE(one.feedbackEvents, 1u);
}

TEST(TriggeredScenario, BitIdenticalAcrossJobs)
{
    const std::string file =
        triggeredScenarioFile("cdir_fb_sweep.scn", 0.25, 500);
    SweepSpec spec;
    spec.options("", feedbackOptions());
    appendScenarioWorkloads(spec, file);
    spec.config("Cuckoo", tinyConfig("Cuckoo"));
    spec.config("Sparse", tinyConfig("Sparse"));

    const std::vector<SweepRecord> serial =
        SweepRunner(SweepOptions{1, ""}).run(spec);
    const std::vector<SweepRecord> parallel =
        SweepRunner(SweepOptions{4, ""}).run(spec);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), serial.size());
    bool anyFired = false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectSameCoreStats(serial[i].result, parallel[i].result,
                            serial[i].configLabel);
        anyFired |= serial[i].result.feedbackEvents != 0;
    }
    EXPECT_TRUE(anyFired) << "test scenario never triggered; the "
                             "determinism pin is vacuous";
}

TEST(TriggeredScenario, RecordedClosedLoopRunReplaysAsPlainTrace)
{
    const std::string trace = tempPath("cdir_fb_rec.ctr");
    const Scenario sc = parseScenarioFile(
        triggeredScenarioFile("cdir_fb_rec.scn", 0.25, 250));
    const CmpConfig cfg = tinyConfig("Cuckoo");

    CmpSystem live(cfg);
    std::uint64_t firings = 0;
    {
        SystemProbe probe(250);
        live.setProbe(&probe);
        ScenarioWorkload source(sc);
        source.attachFeedback(probe.channel());
        const auto sink = makeTraceSink(trace, /*binary=*/true);
        TraceRecorder recorder(source, *sink);
        live.run(recorder, 15000);
        sink->close();
        firings = source.firings().size();
        live.setProbe(nullptr);
    }
    ASSERT_GE(firings, 1u) << "closed loop never closed; replay pin "
                              "would be vacuous";

    // Replay WITHOUT any probe: the trace embodies every feedback
    // decision, so the bare replay reproduces the system bit-exactly.
    CmpSystem replayed(cfg);
    {
        const auto reader =
            makeTraceReader(trace, TraceReadOptions{cfg.numCores, true});
        replayed.run(*reader, ~std::uint64_t{0});
    }
    EXPECT_EQ(live.stats().accesses, replayed.stats().accesses);
    EXPECT_EQ(live.stats().cacheMisses, replayed.stats().cacheMisses);
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
    std::filesystem::remove(trace);
}

TEST(TriggeredScenario, LatencyTriggerWithoutCostModelThrows)
{
    const std::string file = tempPath("cdir_fb_latency.scn");
    {
        std::ofstream out(file);
        out << "cores 4\nprobe 500\nphase a 10000\n  preset DB2\n"
               "  when p99>100\n";
    }
    const WorkloadParams wl = scenarioWorkloadParams(file);
    EXPECT_THROW(
        runExperiment(tinyConfig("Cuckoo"), wl, feedbackOptions()),
        std::runtime_error);

    // With a cost model attached the same schedule runs — and a 1-cycle
    // threshold fires on the first timed window.
    ExperimentOptions timed = feedbackOptions();
    timed.costModel = "fixed";
    std::ofstream(file) << "cores 4\nprobe 500\nphase a 100000\n"
                           "  preset DB2\n  when p99>1\nphase b 100000\n"
                           "  preset DB2\n";
    const ExperimentResult result =
        runExperiment(tinyConfig("Cuckoo"), scenarioWorkloadParams(file),
                      timed);
    EXPECT_GE(result.feedbackEvents, 1u);
}

TEST(TriggeredScenario, ProbeEveryOverrideWins)
{
    // Forcing a different probe interval moves the firing boundary:
    // the override must reach the probe (different grids => different
    // digests for a firing-bearing run).
    const WorkloadParams wl = scenarioWorkloadParams(
        triggeredScenarioFile("cdir_fb_override.scn", 0.1, 500));
    ExperimentOptions coarse = feedbackOptions();
    ExperimentOptions fine = feedbackOptions();
    fine.probeEvery = 125;
    const ExperimentResult a =
        runExperiment(tinyConfig("Cuckoo"), wl, coarse);
    const ExperimentResult b =
        runExperiment(tinyConfig("Cuckoo"), wl, fine);
    ASSERT_GE(a.feedbackEvents, 1u);
    ASSERT_GE(b.feedbackEvents, 1u);
    EXPECT_NE(a.feedbackDigest, b.feedbackDigest);
}

// --- FleetWorkload -----------------------------------------------------------

FleetParams
smallFleet()
{
    FleetParams p;
    p.numCores = 4;
    p.tenants = 4;
    p.blocksPerTenant = 256;
    p.sharedBlocks = 64;
    p.seed = 7;
    return p;
}

TEST(FleetWorkload, TwoInstancesYieldIdenticalStreams)
{
    FleetParams p = smallFleet();
    p.churnEvery = 300;
    p.stormEvery = 700;
    p.stormLength = 50;
    p.diurnalPeriod = 900;
    FleetWorkload a(p), b(p);
    for (std::size_t i = 0; i < 5000; ++i) {
        const MemAccess x = a.next(), y = b.next();
        ASSERT_EQ(x.core, y.core) << i;
        ASSERT_EQ(x.addr, y.addr) << i;
        ASSERT_EQ(x.write, y.write) << i;
        ASSERT_EQ(x.instruction, y.instruction) << i;
    }
    EXPECT_FALSE(a.exhausted());
}

TEST(FleetWorkload, ChurnColdStartsTheFootprint)
{
    FleetParams churned = smallFleet();
    churned.churnEvery = 100;
    churned.sharedFraction = 0.0;
    FleetParams stable = churned;
    stable.churnEvery = 0;

    FleetWorkload a(churned), b(stable);
    std::set<BlockAddr> addrsChurned, addrsStable;
    for (std::size_t i = 0; i < 2000; ++i) {
        addrsChurned.insert(a.next().addr);
        addrsStable.insert(b.next().addr);
    }
    EXPECT_EQ(a.churnEvents(), 19u); // ticks 100..1900
    EXPECT_EQ(b.churnEvents(), 0u);
    // Generation bumps scatter tenants to fresh frames: the churned
    // run touches strictly more distinct blocks.
    EXPECT_GT(addrsChurned.size(), addrsStable.size());
}

TEST(FleetWorkload, StormHammersOneHotKey)
{
    FleetParams p = smallFleet();
    p.stormEvery = 500;
    p.stormLength = 50;
    p.stormFraction = 1.0;
    p.sharedFraction = 0.0;
    FleetWorkload wl(p);
    for (std::size_t i = 0; i <= 500; ++i)
        wl.next(); // through the onset tick
    EXPECT_EQ(wl.stormOnsets(), 1u);
    const BlockAddr hot = wl.next().addr;
    for (std::size_t i = 0; i < 48; ++i)
        EXPECT_EQ(wl.next().addr, hot) << i;
}

TEST(FleetWorkload, DiurnalWaveAndPinControlActiveTenants)
{
    FleetParams p = smallFleet();
    p.tenants = 8;
    p.diurnalPeriod = 1000;
    p.minActiveTenants = 1;
    FleetWorkload wl(p);
    EXPECT_EQ(wl.activeTenants(), 1u); // trough at t=0
    for (std::size_t i = 0; i < 500; ++i)
        wl.next();
    EXPECT_EQ(wl.activeTenants(), 8u); // crest at half period

    wl.setActiveTenants(3);
    EXPECT_EQ(wl.activeTenants(), 3u); // pin overrides the wave
    wl.setActiveTenants(99);
    EXPECT_EQ(wl.activeTenants(), 8u); // clamped to tenants
    wl.setActiveTenants(0);
    EXPECT_EQ(wl.activeTenants(), 1u); // clamped up to 1
}

TEST(FleetWorkload, RejectsBadParams)
{
    FleetParams p = smallFleet();
    p.tenants = 0;
    EXPECT_THROW(FleetWorkload{p}, std::invalid_argument);
    p = smallFleet();
    p.minActiveTenants = 9;
    EXPECT_THROW(FleetWorkload{p}, std::invalid_argument);
    p = smallFleet();
    p.stormFraction = 1.5;
    EXPECT_THROW(FleetWorkload{p}, std::invalid_argument);
    p = smallFleet();
    p.stormEvery = 100;
    p.stormLength = 0;
    EXPECT_THROW(FleetWorkload{p}, std::invalid_argument);
}

TEST(FleetWorkload, RecordThenReplayIsBitIdentical)
{
    // Open-loop fleets record like any other source; the replay is the
    // CI round-trip smoke in miniature.
    const std::string trace = tempPath("cdir_fleet_rec.ctr");
    FleetParams p = smallFleet();
    p.churnEvery = 400;
    p.stormEvery = 900;
    const CmpConfig cfg = tinyConfig("Cuckoo");

    CmpSystem live(cfg);
    {
        FleetWorkload source(p);
        const auto sink = makeTraceSink(trace, /*binary=*/true);
        TraceRecorder recorder(source, *sink);
        live.run(recorder, 8000);
        sink->close();
    }
    CmpSystem replayed(cfg);
    {
        const auto reader =
            makeTraceReader(trace, TraceReadOptions{cfg.numCores, true});
        replayed.run(*reader, ~std::uint64_t{0});
    }
    EXPECT_EQ(live.stats().accesses, replayed.stats().accesses);
    EXPECT_EQ(live.stats().cacheMisses, replayed.stats().cacheMisses);
    for (std::size_t s = 0; s < live.numSlices(); ++s)
        EXPECT_EQ(live.slice(s).validEntries(),
                  replayed.slice(s).validEntries())
            << "slice " << s;
    std::filesystem::remove(trace);
}

// --- spec grammar ------------------------------------------------------------

TEST(FleetSpec, ParsesKnobsAndRejectsUnknowns)
{
    EXPECT_TRUE(isFleetSpec("fleet"));
    EXPECT_TRUE(isFleetSpec("fleet:tenants=4"));
    EXPECT_FALSE(isFleetSpec("fleets"));
    EXPECT_FALSE(isFleetSpec("migration-storm"));

    const FleetParams p = parseFleetSpec(
        "fleet:tenants=4:blocks=512:theta=0.5:write=0.3:churn=1000:"
        "storm=2000:storm-len=100:storm-frac=0.7:diurnal=5000:"
        "min-active=2:shared=128:shared-frac=0.1:seed=9",
        8);
    EXPECT_EQ(p.numCores, 8u);
    EXPECT_EQ(p.tenants, 4u);
    EXPECT_EQ(p.blocksPerTenant, 512u);
    EXPECT_DOUBLE_EQ(p.theta, 0.5);
    EXPECT_DOUBLE_EQ(p.writeFraction, 0.3);
    EXPECT_EQ(p.churnEvery, 1000u);
    EXPECT_EQ(p.stormEvery, 2000u);
    EXPECT_EQ(p.stormLength, 100u);
    EXPECT_DOUBLE_EQ(p.stormFraction, 0.7);
    EXPECT_EQ(p.diurnalPeriod, 5000u);
    EXPECT_EQ(p.minActiveTenants, 2u);
    EXPECT_EQ(p.sharedBlocks, 128u);
    EXPECT_DOUBLE_EQ(p.sharedFraction, 0.1);
    EXPECT_EQ(p.seed, 9u);

    EXPECT_THROW(parseFleetSpec("fleet:bogus=1", 8),
                 std::invalid_argument);
    EXPECT_THROW(parseFleetSpec("fleet:tenants", 8),
                 std::invalid_argument);
    EXPECT_THROW(parseFleetSpec("fleet:tenants=abc", 8),
                 std::invalid_argument);
    // Counts parse the whole string: a sign or padding is an error
    // naming the knob, not a count wrapped to 2^64 - n.
    for (const char *spec : {"fleet:tenants=4:blocks=-4096",
                             "fleet:tenants= 4", "fleet:tenants=4 ",
                             "fleet:tenants=+4"}) {
        try {
            parseFleetSpec(spec, 8);
            ADD_FAILURE() << "accepted: " << spec;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("fleet spec: '"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(FleetSpec, SloRampSpecParsesAndForwardsFleetKnobs)
{
    EXPECT_TRUE(isSloRampSpec("slo-ramp"));
    EXPECT_TRUE(isSloRampSpec("slo-ramp:target=100"));
    EXPECT_FALSE(isSloRampSpec("slo-rampage"));

    const SloRampParams p = parseSloRampSpec(
        "slo-ramp:metric=occupancy:target=0.5:step=1000:start=2:max=6:"
        "tenants=6:blocks=512",
        4);
    EXPECT_EQ(p.metric, TriggerMetric::Occupancy);
    EXPECT_DOUBLE_EQ(p.target, 0.5);
    EXPECT_EQ(p.step, 1000u);
    EXPECT_EQ(p.startLevel, 2u);
    EXPECT_EQ(p.maxLevel, 6u);
    EXPECT_EQ(p.fleet.tenants, 6u);
    EXPECT_EQ(p.fleet.blocksPerTenant, 512u);
    EXPECT_EQ(p.fleet.numCores, 4u);

    EXPECT_THROW(parseSloRampSpec("slo-ramp:metric=bogus", 4),
                 std::invalid_argument);
    EXPECT_THROW(parseSloRampSpec("slo-ramp:nonsense=1", 4),
                 std::invalid_argument);
    EXPECT_THROW(parseSloRampSpec("slo-ramp:step=-1", 4),
                 std::invalid_argument);
    EXPECT_THROW(parseSloRampSpec("slo-ramp:blocks=-4096", 4),
                 std::invalid_argument);
}

TEST(FleetSpec, RejectsNonFiniteKnobs)
{
    // A non-finite knob would record a degenerate stream.
    for (const char *knob : {"theta", "write", "shared-frac", "storm-frac"})
        for (const char *value : {"nan", "inf", "-inf"}) {
            const std::string spec =
                std::string("fleet:") + knob + "=" + value;
            try {
                parseFleetSpec(spec, 8);
                ADD_FAILURE() << "accepted: " << spec;
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(
                              std::string("fleet spec: '") + knob +
                              "' is not a number"),
                          std::string::npos)
                    << e.what();
            }
        }
}

TEST(FleetSpec, SloRampRejectsNonFiniteKnobs)
{
    for (const char *spec : {"slo-ramp:target=nan", "slo-ramp:target=inf",
                             "slo-ramp:theta=nan"}) {
        try {
            parseSloRampSpec(spec, 4);
            ADD_FAILURE() << "accepted: " << spec;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("slo-ramp spec: '"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(FleetSpec, DynamicDispatchAndNaming)
{
    EXPECT_NE(dynamic_cast<FleetWorkload *>(
                  makeDynamicSource("fleet:tenants=2", 4).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<SloRampWorkload *>(
                  makeDynamicSource("slo-ramp:tenants=2", 4).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<ScenarioWorkload *>(
                  makeDynamicSource("migration-storm", 4).get()),
              nullptr);

    const WorkloadParams p = dynamicWorkloadParams("fleet:tenants=2");
    EXPECT_EQ(p.name, "fleet:tenants=2");
    EXPECT_EQ(p.scenarioSpec, "fleet:tenants=2");
    EXPECT_EQ(dynamicWorkloadParams("migration-storm").name,
              "migration-storm");
}

TEST(FleetSpec, SweepAxisAcceptsFleetSpecsAndValidatesEagerly)
{
    SweepSpec spec;
    appendScenarioWorkloads(spec, "fleet:tenants=2,migration-storm", 4);
    ASSERT_EQ(spec.workloads().size(), 2u);
    EXPECT_EQ(spec.workloads()[0].label, "fleet:tenants=2");
    EXPECT_EQ(spec.workloads()[1].label, "migration-storm");

    SweepSpec bad;
    EXPECT_THROW(appendScenarioWorkloads(bad, "fleet:bogus=1", 4),
                 std::invalid_argument);
}

// --- SLO ramp ----------------------------------------------------------------

TEST(SloRamp, EscalatesAndBacksOffAtTheKnee)
{
    SloRampParams params;
    params.fleet = smallFleet();
    params.fleet.tenants = 8;
    params.metric = TriggerMetric::Occupancy;
    params.target = 0.5;
    params.step = 100;
    SloRampWorkload ramp(params);
    EXPECT_EQ(ramp.currentLevel(), 1u);
    EXPECT_EQ(ramp.probeInterval(), 100u);
    EXPECT_TRUE(ramp.wantsFeedback());
    EXPECT_FALSE(ramp.needsTiming()); // occupancy metric is untimed

    FeedbackChannel channel;
    ramp.attachFeedback(channel);

    const auto publish = [&](std::uint64_t seq, double occupancy) {
        ProbeSnapshot snap;
        snap.sequence = seq;
        snap.accessIndex = seq * 100;
        snap.occupancy = occupancy;
        channel.publish(snap);
        ramp.next(); // decisions happen on the draw after a snapshot
    };

    publish(1, 0.2); // sustained -> escalate
    EXPECT_EQ(ramp.currentLevel(), 2u);
    EXPECT_EQ(ramp.kneeLevel(), 1u);
    publish(2, 0.3); // sustained -> escalate
    EXPECT_EQ(ramp.currentLevel(), 3u);
    EXPECT_EQ(ramp.kneeLevel(), 2u);
    EXPECT_DOUBLE_EQ(ramp.kneeMetric(), 0.3);

    // Same snapshot again: one decision per capture, nothing changes.
    ramp.next();
    EXPECT_EQ(ramp.currentLevel(), 3u);
    EXPECT_EQ(ramp.transitions().size(), 2u);

    publish(3, 0.9); // violation -> back off to the knee and hold
    EXPECT_TRUE(ramp.crossed());
    EXPECT_EQ(ramp.currentLevel(), 2u);
    EXPECT_EQ(ramp.kneeLevel(), 2u);
    EXPECT_DOUBLE_EQ(ramp.crossMetric(), 0.9);

    publish(4, 0.1); // held: no further transitions after the cross
    EXPECT_EQ(ramp.currentLevel(), 2u);
    ASSERT_EQ(ramp.transitions().size(), 3u);
    EXPECT_TRUE(ramp.transitions().back().violation);
    EXPECT_EQ(ramp.feedbackEventCount(), 3u);
    EXPECT_NE(ramp.feedbackDigest(), fnv1aInit());
}

TEST(SloRamp, RejectsBadParams)
{
    SloRampParams p;
    p.fleet = smallFleet();
    p.step = 0;
    EXPECT_THROW(SloRampWorkload{p}, std::invalid_argument);
    p = SloRampParams{};
    p.fleet = smallFleet();
    p.maxLevel = 99;
    EXPECT_THROW(SloRampWorkload{p}, std::invalid_argument);
    p = SloRampParams{};
    p.fleet = smallFleet();
    p.startLevel = 5; // > tenants (= default top)
    EXPECT_THROW(SloRampWorkload{p}, std::invalid_argument);
}

TEST(SloRamp, ExperimentSurfacesKneeDeterministically)
{
    // Occupancy-metric ramp (no cost model needed): the tiny directory
    // saturates fast, so the ramp crosses within the measure run.
    const WorkloadParams wl = dynamicWorkloadParams(
        "slo-ramp:metric=occupancy:target=0.6:step=1000:tenants=8:"
        "blocks=4096");
    ExperimentOptions opts;
    opts.warmupAccesses = 2000;
    opts.measureAccesses = 20000;
    opts.occupancySampleEvery = 500;

    const ExperimentResult one =
        runExperiment(tinyConfig("Cuckoo"), wl, opts);
    EXPECT_GE(one.feedbackEvents, 1u);
    EXPECT_GE(one.rampFinalLevel, 1u);

    const ExperimentResult again =
        runExperiment(tinyConfig("Cuckoo"), wl, opts);
    expectSameCoreStats(one, again, "slo-ramp rerun");
    EXPECT_EQ(one.rampFinalLevel, again.rampFinalLevel);
    EXPECT_EQ(one.rampKneeLevel, again.rampKneeLevel);
    EXPECT_EQ(one.rampKneeMetric, again.rampKneeMetric);
    EXPECT_EQ(one.rampCrossMetric, again.rampCrossMetric);
}

TEST(SloRamp, ResultFieldsRoundTripThroughCampaignJson)
{
    ExperimentResult result;
    result.workload = "slo-ramp:target=1";
    result.organization = "Cuckoo";
    result.feedbackEvents = 7;
    result.feedbackDigest = 0xdeadbeefcafef00dull;
    result.rampFinalLevel = 5;
    result.rampKneeLevel = 4;
    result.rampKneeMetric = 123.5;
    result.rampCrossMetric = 180.25;

    const ExperimentResult back =
        parseExperimentResult(experimentResultToJson(result));
    EXPECT_EQ(back.feedbackEvents, 7u);
    EXPECT_EQ(back.feedbackDigest, 0xdeadbeefcafef00dull);
    EXPECT_EQ(back.rampFinalLevel, 5u);
    EXPECT_EQ(back.rampKneeLevel, 4u);
    EXPECT_DOUBLE_EQ(back.rampKneeMetric, 123.5);
    EXPECT_DOUBLE_EQ(back.rampCrossMetric, 180.25);
}

} // namespace
} // namespace cdir
