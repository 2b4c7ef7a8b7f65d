/**
 * @file
 * Repository benchmark driver: one named workload per process.
 *
 * The simulator is driven through its public calls only (the CmpSystem
 * constructor, makeWorkloadSource, makeCostModel, CmpSystem::run,
 * resetStats, stats, aggregateDirectoryStats, estimatedMemoryBytes),
 * reproducing runExperiment's warmup-then-measure sequence so set-up,
 * warmup and measure are timed separately. The load is a closed loop:
 * one deterministic access stream, each access issued after the
 * previous one retires, everything on one thread (shards = 1).
 *
 *   --trace 0  repeats the whole set-up + warmup + measure cycle in a
 *              fresh CmpSystem until --seconds have passed, timing the
 *              phases in pieces of kPieceAccesses accesses, and prints
 *              the end-to-end metrics: each phase time is the sum over
 *              pieces of that piece's fastest time, and set-up time is
 *              the median of the set-ups.
 *   --trace 1  replays the same stream through the layers' public calls
 *              (AccessSource::next, SetAssocCache::access/invalidate,
 *              Directory::removeSharer/accessBatch, CostModel +
 *              LatencyHistogram) in CmpSystem's order, with a timed span
 *              around every call, and prints the per-layer metrics.
 *
 * Every run first calls runExperiment on the same inputs. That run is
 * the reference the driver's counters must equal exactly, and it is
 * also the discarded cold-start leg. The last line of stdout is the
 * result object: {"correct", "attempted", "failed", "metrics"}, where
 * attempted/failed count the output checks.
 *
 *   perfbench --workload oltp16 --seed 7 --seconds 10 --trace 0
 *             [--scale 0.01] [--spans-out FILE]
 */

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <malloc.h>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/cost_model.hh"
#include "sim/experiment.hh"
#include "workload/feedback.hh"
#include "workload/fleet.hh"

using namespace cdir;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Quantile @p q of @p values, interpolating linearly between ranks. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

constexpr double kMiB = 1024.0 * 1024.0;

// --- workloads --------------------------------------------------------------

/** One benchmark workload: the system, its input and its run lengths. */
struct WorkloadDef
{
    std::string name;
    CmpConfig config;
    WorkloadParams params;
    ExperimentOptions options;
};

const char *const kWorkloadNames[] = {"oltp16", "ocean16-privl2",
                                      "fleet16-sparse", "db2-1024"};

/** The fleet generator spec of the end_to_end_rate fleet leg. */
const char *const kFleetSpec =
    "fleet:tenants=16:blocks=8192:churn=200000:storm=500000";

std::uint64_t
scaled(std::uint64_t n, double scale)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(double(n) * scale)));
}

/**
 * Build workload @p name. @p seed replaces the generator seed
 * (WorkloadParams::seed for the presets, seed= for the fleet spec);
 * without it each generator keeps its fixed default. @p scale shrinks
 * every run length (the self-test runs at a tiny scale).
 */
WorkloadDef
defineWorkload(const std::string &name, std::optional<std::uint64_t> seed,
               double scale)
{
    WorkloadDef w;
    w.name = name;
    ExperimentOptions &o = w.options;
    o.occupancySampleEvery = 10'000;
    std::uint64_t warmup = 0, measure = 0, interval = 0;
    if (name == "oltp16") {
        // Table 1 Shared-L2 CMP, Cuckoo 4x512 per slice (§5.2, 1x),
        // DB2 OLTP, timed by the mesh cost model.
        w.config = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
        w.config.directory = cuckooSliceParams(4, 512);
        w.params = paperWorkloadParams(PaperWorkload::OltpDb2, false, 16);
        o.costModel = "mesh";
        warmup = 1'000'000;
        measure = 2'000'000;
    } else if (name == "ocean16-privl2") {
        // Table 1 Private-L2 CMP, Cuckoo 3x8192 per slice (§5.2, 1.5x),
        // ocean: private streaming data, untimed.
        w.config = CmpConfig::paperConfig(CmpConfigKind::PrivateL2);
        w.config.directory = cuckooSliceParams(3, 8192);
        w.params = paperWorkloadParams(PaperWorkload::SciOcean, true, 16);
        warmup = 1'500'000;
        measure = 1'500'000;
    } else if (name == "fleet16-sparse") {
        // Shared-L2 CMP with Sparse 8x512 slices under the multi-tenant
        // fleet generator, batched staging (window 64), untimed.
        w.config = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
        w.config.directory = sparseSliceParams(8, 512);
        w.config.batchWindow = 64;
        std::string spec = kFleetSpec;
        if (seed)
            spec += ":seed=" + std::to_string(*seed);
        w.params = dynamicWorkloadParams(spec);
        warmup = 1'000'000;
        measure = 2'000'000;
    } else if (name == "db2-1024") {
        // ext_scalability_sim's 1024-core tier cell: one slice and one
        // 512x2 private cache per core, Cuckoo 4x256 with the compressed
        // sharer format, DB2, untimed, interval telemetry on.
        w.config.kind = CmpConfigKind::PrivateL2;
        w.config.numCores = 1024;
        w.config.numSlices = 1024;
        w.config.privateCache = CacheConfig{512, 2};
        w.config.directory =
            cuckooSliceParams(4, 256, SharerFormat::Compressed);
        w.params =
            paperWorkloadParams(PaperWorkload::OltpDb2, false, 1024);
        warmup = 1024 * 2048;
        measure = 1024 * 1024;
        interval = 262'144;
    } else {
        std::string known;
        for (const char *n : kWorkloadNames)
            known += std::string(known.empty() ? "" : ", ") + n;
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (known: " + known + ")");
    }
    if (seed && w.params.scenarioSpec.empty())
        w.params.seed = *seed;
    o.warmupAccesses = scaled(warmup, scale);
    o.measureAccesses = scaled(measure, scale);
    if (interval != 0)
        o.intervalAccesses = scaled(interval, scale);
    return w;
}

// --- counters and checks ----------------------------------------------------

/** Named end-of-run simulator counters, in a fixed order. */
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t
latencyDigest(const LatencyHistogram &h)
{
    std::uint64_t d = fnv1aInit();
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
        d = fnv1aMix(d, h.bucketAt(b));
    return d;
}

Counters
collectCounters(const CmpStats &s, const DirectoryStats &d,
                std::uint64_t est_bytes, const IntervalStats &iv)
{
    std::uint64_t attempts = fnv1aInit();
    for (std::size_t v = 0; v <= d.attemptHistogram.maxValue(); ++v)
        attempts = fnv1aMix(attempts, d.attemptHistogram.at(v));
    std::uint64_t windows = fnv1aInit();
    for (const IntervalRecord &r : iv.windows) {
        for (const std::uint64_t v :
             {r.accesses, r.cacheMisses, r.insertions, r.attemptSum,
              r.insertionAttemptCount, r.forcedEvictions,
              r.sharingInvalidations, r.forcedInvalidations,
              r.occupiedEntries, r.capacityEntries, latencyDigest(r.latency)})
            windows = fnv1aMix(windows, v);
    }
    return {
        {"accesses", s.accesses},
        {"cache_hits", s.cacheHits},
        {"cache_misses", s.cacheMisses},
        {"write_upgrades", s.writeUpgrades},
        {"cache_evictions", s.cacheEvictions},
        {"sharing_invalidations", s.sharingInvalidations},
        {"forced_invalidations", s.forcedInvalidations},
        {"occupancy_samples", s.directoryOccupancy.count()},
        {"occupancy_sum_bits",
         std::bit_cast<std::uint64_t>(s.directoryOccupancy.sum())},
        {"latency_samples", s.latency.count()},
        {"latency_cycles", s.latency.totalCycles()},
        {"latency_buckets", latencyDigest(s.latency)},
        {"dir_lookups", d.lookups},
        {"dir_hits", d.hits},
        {"dir_insertions", d.insertions},
        {"dir_sharer_adds", d.sharerAdds},
        {"dir_write_upgrades", d.writeUpgrades},
        {"dir_sharer_removals", d.sharerRemovals},
        {"dir_entry_frees", d.entryFrees},
        {"dir_forced_evictions", d.forcedEvictions},
        {"dir_forced_block_invalidations", d.forcedBlockInvalidations},
        {"dir_insert_failures", d.insertFailures},
        {"dir_attempt_count", d.insertionAttempts.count()},
        {"dir_attempt_sum_bits",
         std::bit_cast<std::uint64_t>(d.insertionAttempts.sum())},
        {"dir_attempt_histogram", attempts},
        {"est_mem_bytes", est_bytes},
        {"interval_windows", iv.windows.size()},
        {"interval_series", windows},
    };
}

std::uint64_t
digestOf(const Counters &counters)
{
    std::uint64_t d = fnv1aInit();
    for (const auto &[name, value] : counters)
        d = fnv1aMix(d, value);
    return d;
}

std::string
describeMismatch(const Counters &got, const Counters &want)
{
    for (std::size_t i = 0; i < got.size() && i < want.size(); ++i)
        if (got[i].second != want[i].second)
            return got[i].first + " " + std::to_string(got[i].second) +
                   " != " + std::to_string(want[i].second);
    return "";
}

/** Output checks; counted into the result's attempted / failed. */
struct Checks
{
    std::uint64_t run = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++run;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }

    void
    expectEqual(const Counters &got, const Counters &want,
                const std::string &what)
    {
        expect(got == want, what + (got == want ? "" : ": " +
                                    describeMismatch(got, want)));
    }
};

// --- the measure phase, shared by every driver ------------------------------

/** Point-in-time aggregate counters an interval window is cut from. */
struct Snapshot
{
    std::uint64_t cacheMisses = 0;
    std::uint64_t insertions = 0;
    double attemptSum = 0.0;
    std::uint64_t attemptCount = 0;
    std::uint64_t forcedEvictions = 0;
    std::uint64_t sharingInvalidations = 0;
    std::uint64_t forcedInvalidations = 0;
    LatencyHistogram latency;
    std::uint64_t occupiedEntries = 0;
};

Snapshot
takeSnapshot(const CmpStats &stats, const CmpSystem &system,
             bool count_entries)
{
    const DirectoryStats dir = system.aggregateDirectoryStats();
    Snapshot snap;
    snap.cacheMisses = stats.cacheMisses;
    snap.insertions = dir.insertions;
    snap.attemptSum = dir.insertionAttempts.sum();
    snap.attemptCount = dir.insertionAttempts.count();
    snap.forcedEvictions = dir.forcedEvictions;
    snap.sharingInvalidations = stats.sharingInvalidations;
    snap.forcedInvalidations = stats.forcedInvalidations;
    snap.latency = stats.latency;
    if (count_entries)
        for (std::size_t s = 0; s < system.numSlices(); ++s)
            snap.occupiedEntries += system.slice(s).validEntries();
    return snap;
}

/**
 * runExperiment's measure phase: one run() call, or, with interval
 * telemetry, intervalAccesses-sized windows each closed by a snapshot.
 * @p driver provides run(count, sample_every), system() and
 * snapshot(count_entries).
 */
template <class Driver>
IntervalStats
runMeasure(Driver &driver, const ExperimentOptions &o)
{
    IntervalStats iv;
    if (o.intervalAccesses == 0) {
        driver.run(o.measureAccesses, o.occupancySampleEvery);
        return iv;
    }
    iv.intervalAccesses = o.intervalAccesses;
    std::uint64_t capacity = 0;
    for (std::size_t s = 0; s < driver.system().numSlices(); ++s)
        capacity += driver.system().slice(s).capacity();
    Snapshot prev = driver.snapshot(false);
    std::uint64_t remaining = o.measureAccesses;
    while (remaining > 0) {
        const std::uint64_t chunk = std::min(o.intervalAccesses, remaining);
        const std::uint64_t executed =
            driver.run(chunk, o.occupancySampleEvery);
        if (executed == 0)
            break;
        Snapshot cur = driver.snapshot(true);
        IntervalRecord rec;
        rec.accesses = executed;
        rec.cacheMisses = cur.cacheMisses - prev.cacheMisses;
        rec.insertions = cur.insertions - prev.insertions;
        rec.attemptSum =
            static_cast<std::uint64_t>(cur.attemptSum - prev.attemptSum);
        rec.insertionAttemptCount = cur.attemptCount - prev.attemptCount;
        rec.forcedEvictions = cur.forcedEvictions - prev.forcedEvictions;
        rec.sharingInvalidations =
            cur.sharingInvalidations - prev.sharingInvalidations;
        rec.forcedInvalidations =
            cur.forcedInvalidations - prev.forcedInvalidations;
        rec.latency = cur.latency;
        rec.latency.subtract(prev.latency);
        rec.occupiedEntries = cur.occupiedEntries;
        rec.capacityEntries = capacity;
        iv.windows.push_back(rec);
        prev = std::move(cur);
        remaining -= executed;
        if (executed < chunk)
            break;
    }
    return iv;
}

/** The constructed system, cost model and source of one run. */
struct Built
{
    std::unique_ptr<CmpSystem> system;
    std::unique_ptr<CostModel> costs;
    std::unique_ptr<AccessSource> source;
};

/** Set-up in runExperiment's order: system, cost model, source. */
Built
build(const WorkloadDef &w)
{
    Built b;
    b.system = std::make_unique<CmpSystem>(w.config);
    if (!w.options.costModel.empty()) {
        b.costs = makeCostModel(w.options.costModel, w.config);
        b.system->setCostModel(b.costs.get());
    }
    b.source = makeWorkloadSource(w.config, w.params);
    return b;
}

/** A pre-generated stream, so a run times the simulator alone. */
class VectorSource : public AccessSource
{
  public:
    explicit VectorSource(std::vector<MemAccess> stream)
        : accesses(std::move(stream))
    {}

    MemAccess next() override { return accesses[pos++]; }
    bool exhausted() const override { return pos == accesses.size(); }

  private:
    std::vector<MemAccess> accesses;
    std::size_t pos = 0;
};

/**
 * Accesses per timed piece of a phase: a multiple of every batch window
 * and of the occupancy sampling period, so cutting a run() call into
 * pieces moves no flush or sample and the counters stay exact (40000
 * is the least common multiple of the windows, 1 and 64, and of the
 * 10000-access sampling period). About 10 ms of simulation.
 */
constexpr std::uint64_t kPieceAccesses = 40'000;

/**
 * CmpSystem::run(@p source, @p count, @p sample_every) cut into pieces
 * of kPieceAccesses, each piece's wall time appended to @p pieces.
 */
std::uint64_t
runPieces(CmpSystem &sys, AccessSource &source, std::uint64_t count,
          std::uint64_t sample_every, std::vector<double> &pieces)
{
    std::uint64_t executed = 0;
    while (executed < count) {
        const std::uint64_t n = std::min(kPieceAccesses, count - executed);
        const auto t = Clock::now();
        const std::uint64_t done = sys.run(source, n, sample_every);
        pieces.push_back(secondsSince(t));
        executed += done;
        if (done < n)
            break;
    }
    return executed;
}

/** Drives a real CmpSystem through CmpSystem::run, timed in pieces. */
struct PlainDriver
{
    CmpSystem &sys;
    AccessSource &source;
    std::vector<double> &pieces;

    std::uint64_t
    run(std::uint64_t count, std::uint64_t sample_every)
    {
        return runPieces(sys, source, count, sample_every, pieces);
    }
    CmpSystem &system() { return sys; }
    Snapshot
    snapshot(bool count_entries)
    {
        return takeSnapshot(sys.stats(), sys, count_entries);
    }
};

/** What a run leaves behind for the metrics and checks. */
struct RunResult
{
    double setupS = 0.0;
    double warmupS = 0.0;
    double measureS = 0.0;
    std::vector<double> warmupPieces;  //!< run() pieces, then resetStats
    std::vector<double> measurePieces; //!< run() pieces (snapshots untimed)
    Counters counters;
    CmpStats stats;
    DirectoryStats directory;
    bool covered = false;
    std::size_t cacheBytes = 0;
    std::size_t directoryBytes = 0;
};

void
finishRun(RunResult &r, CmpSystem &sys, const CmpStats &stats,
          const IntervalStats &iv)
{
    r.stats = stats;
    r.directory = sys.aggregateDirectoryStats();
    r.counters = collectCounters(r.stats, r.directory,
                                 sys.estimatedMemoryBytes(), iv);
    r.covered = sys.directoryCoversCaches();
    for (std::size_t c = 0; c < sys.numCaches(); ++c)
        r.cacheBytes += sys.cache(c).memoryBytes();
    for (std::size_t s = 0; s < sys.numSlices(); ++s)
        r.directoryBytes += sys.slice(s).memoryBytes();
}

/**
 * One untraced warmup-then-measure run through the public calls. With
 * @p pregenerate the measure stream is generated into memory first, so
 * measureS times CmpSystem::run alone.
 */
RunResult
runPlain(const WorkloadDef &w, bool pregenerate)
{
    RunResult r;
    const auto t0 = Clock::now();
    Built b = build(w);
    r.setupS = secondsSince(t0);

    const auto t1 = Clock::now();
    runPieces(*b.system, *b.source, w.options.warmupAccesses, 0,
              r.warmupPieces);
    const auto tr = Clock::now();
    b.system->resetStats();
    r.warmupPieces.push_back(secondsSince(tr));
    r.warmupS = secondsSince(t1);

    std::unique_ptr<AccessSource> measured;
    if (pregenerate) {
        std::vector<MemAccess> stream(w.options.measureAccesses);
        for (MemAccess &m : stream)
            m = b.source->next();
        measured = std::make_unique<VectorSource>(std::move(stream));
    }
    PlainDriver driver{*b.system, measured ? *measured : *b.source,
                       r.measurePieces};
    const auto t2 = Clock::now();
    const IntervalStats iv = runMeasure(driver, w.options);
    r.measureS = secondsSince(t2);

    finishRun(r, *b.system, b.system->stats(), iv);
    return r;
}

/**
 * A phase's time from repeated runs of one stream: for each piece
 * position, the fastest of that piece's times across @p runs, summed
 * over the positions. Every run executes the same accesses, so a piece
 * position is the same work in each run.
 */
double
phaseTime(const std::vector<RunResult> &runs,
          std::vector<double> RunResult::*pieces)
{
    double total = 0.0;
    const std::size_t n = (runs.front().*pieces).size();
    for (std::size_t i = 0; i < n; ++i) {
        double fastest = (runs.front().*pieces)[i];
        for (const RunResult &r : runs)
            fastest = std::min(fastest, (r.*pieces)[i]);
        total += fastest;
    }
    return total;
}

/** Set-up alone: construct everything, then tear it down untimed. */
double
setupOnly(const WorkloadDef &w)
{
    const auto t0 = Clock::now();
    const Built b = build(w);
    return secondsSince(t0);
}

// --- tracing ----------------------------------------------------------------

enum SpanKind : unsigned
{
    kAccess,          //!< one access through the driver (root)
    kNext,            //!< AccessSource::next
    kCacheAccess,     //!< SetAssocCache::access
    kDirRemove,       //!< Directory::removeSharer
    kDirRequest,      //!< Directory::accessBatch (items = requests)
    kCacheInvalidate, //!< SetAssocCache::invalidate
    kModel,           //!< CostModel::accessLatency + LatencyHistogram::add
    kSample,          //!< CmpSystem::sampleOccupancy
    kSnapshot,        //!< aggregateDirectoryStats + per-slice validEntries
    kSetupSystem,     //!< CmpSystem constructor
    kSetupModel,      //!< makeCostModel
    kSetupSource,     //!< makeWorkloadSource
    kSpanKinds
};

const char *const kSpanNames[kSpanKinds] = {
    "sim.access",       "workload.next",    "cache.access",
    "directory.remove", "directory.request", "cache.invalidate",
    "model.latency",    "sim.sample",       "sim.snapshot",
    "setup.system",     "setup.model",      "setup.source"};

/**
 * In-memory span recorder. Every span adds to per-kind totals; while
 * recording is on (a sampled access), full records are kept as well.
 */
class Tracer
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        std::uint64_t items = 0;
        std::uint64_t children = 0;
        std::int64_t rawNs = 0;
        std::int64_t childNs = 0;
    };

    struct Record
    {
        SpanKind kind;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int32_t parent; //!< index into records(), -1 for a root
        std::uint64_t access;
    };

    static constexpr std::size_t kMaxRecords = 1 << 18;

    void
    begin(SpanKind kind)
    {
        const std::int32_t parent =
            depth > 0 ? stack[depth - 1].record : -1;
        Open &open = stack[depth++];
        open = Open{kind, nowNs(), 0, 0, -1};
        if (recording && spans.size() < kMaxRecords) {
            open.record = static_cast<std::int32_t>(spans.size());
            spans.push_back(Record{kind, open.startNs, 0, parent, access});
        }
    }

    void
    end(std::uint64_t items = 1)
    {
        const std::int64_t t = nowNs();
        const Open open = stack[--depth];
        Totals &tot = kinds[open.kind];
        const std::int64_t raw = t - open.startNs;
        ++tot.calls;
        tot.items += items;
        tot.rawNs += raw;
        tot.childNs += open.childNs;
        tot.children += open.children;
        if (depth > 0) {
            stack[depth - 1].childNs += raw;
            ++stack[depth - 1].children;
        }
        if (open.record >= 0)
            spans[open.record].endNs = t;
    }

    const Totals &totals(SpanKind kind) const { return kinds[kind]; }
    void resetTotals() { kinds = {}; }

    /** Tag the following spans with @p id; record them iff @p keep. */
    void
    setAccess(std::uint64_t id, bool keep)
    {
        access = id;
        recording = keep;
    }

    const std::vector<Record> &records() const { return spans; }
    void clearRecords() { spans.clear(); }

  private:
    struct Open
    {
        SpanKind kind;
        std::int64_t startNs;
        std::int64_t childNs;
        std::uint64_t children;
        std::int32_t record;
    };

    std::array<Totals, kSpanKinds> kinds{};
    std::array<Open, 8> stack{};
    int depth = 0;
    bool recording = false;
    std::uint64_t access = 0;
    std::vector<Record> spans;
};

/**
 * Measured cost of one clock read: the raw duration of an empty span.
 * A span reads this much more than the call it wraps, and its parent's
 * self time holds one more clock read per child span.
 */
double
calibrateTimerNs()
{
    constexpr int kBatches = 15;
    constexpr int kSpans = 20'000;
    std::vector<double> perSpan;
    for (int b = 0; b < kBatches; ++b) {
        Tracer t;
        for (int i = 0; i < kSpans; ++i) {
            t.begin(kNext);
            t.end();
        }
        perSpan.push_back(double(t.totals(kNext).rawNs) / kSpans);
    }
    return median(perSpan);
}

/** Self time of @p kind with the clock reads removed. */
double
selfNs(const Tracer &tracer, SpanKind kind, double timer_ns)
{
    const Tracer::Totals &t = tracer.totals(kind);
    return double(t.rawNs - t.childNs) -
           double(t.children + t.calls) * timer_ns;
}

/**
 * CmpSystem's stage / flush / apply driver, replayed through the
 * layers' public calls on a CmpSystem's own caches and slices, with a
 * span around every call. Its counters must equal CmpSystem's.
 */
class TracedSim
{
  public:
    /** Accesses whose spans are all kept as records: 1 in this many. */
    static constexpr std::uint64_t kRecordEvery = 4096;

    TracedSim(const WorkloadDef &w, Tracer &tracer) : tr(tracer)
    {
        tr.begin(kSetupSystem);
        sys = std::make_unique<CmpSystem>(w.config);
        tr.end();
        if (!w.options.costModel.empty()) {
            tr.begin(kSetupModel);
            costs = makeCostModel(w.options.costModel, w.config);
            tr.end();
            counters.latency.preallocate();
        }
        tr.begin(kSetupSource);
        source = makeWorkloadSource(w.config, w.params);
        tr.end();

        const CmpConfig &cfg = sys->config();
        sliceMask = cfg.numSlices - 1;
        sliceShift = static_cast<unsigned>(std::countr_zero(cfg.numSlices));
        window = std::max<std::size_t>(cfg.batchWindow, 1);
        queues.resize(cfg.numSlices);
        contexts.reserve(cfg.numSlices);
        for (std::size_t s = 0; s < cfg.numSlices; ++s) {
            contexts.push_back(sys->slice(s).makeContext());
            contexts.back().reserve(window);
            queues[s].removals.reserve(window);
            queues[s].requests.reserve(window);
        }
    }

    /** CmpSystem::run(AccessSource &, count, sample_every). */
    std::uint64_t
    run(std::uint64_t count, std::uint64_t sample_every)
    {
        std::size_t staged = 0;
        std::uint64_t executed = 0;
        while (executed < count && !source->exhausted()) {
            tr.setAccess(seq, recordSpans && seq % kRecordEvery == 0);
            tr.begin(kAccess);
            tr.begin(kNext);
            const MemAccess mem = source->next();
            tr.end();
            stage(mem);
            ++executed;
            ++staged;
            const bool sample_due =
                sample_every != 0 && executed % sample_every == 0;
            if (staged == window || sample_due) {
                flush();
                staged = 0;
            }
            if (sample_due) {
                tr.begin(kSample);
                sys->sampleOccupancy();
                tr.end();
            }
            tr.end();
            tr.setAccess(seq, false);
            ++seq;
        }
        tr.begin(kAccess);
        flush();
        tr.end();
        return executed;
    }

    /** CmpSystem::resetStats, plus the tracer's totals. */
    void
    resetStats()
    {
        sys->resetStats();
        counters = CmpStats{};
        if (costs)
            counters.latency.preallocate();
        tr.resetTotals();
    }

    /** Keep full span records for sampled accesses from now on. */
    void startRecording() { recordSpans = true; }

    /** The counters CmpSystem::stats() would hold. */
    CmpStats
    stats() const
    {
        CmpStats s = counters;
        s.directoryOccupancy = sys->stats().directoryOccupancy;
        return s;
    }

    CmpSystem &system() { return *sys; }

    Snapshot
    snapshot(bool count_entries)
    {
        tr.setAccess(seq, recordSpans);
        tr.begin(kSnapshot);
        Snapshot snap = takeSnapshot(counters, *sys, count_entries);
        tr.end();
        tr.setAccess(seq, false);
        return snap;
    }

  private:
    struct StagedRemoval
    {
        std::uint32_t beforeRequest;
        Tag tag;
        CacheId cache;
    };

    struct SliceQueue
    {
        std::vector<StagedRemoval> removals;
        std::vector<DirRequest> requests;
        bool dirty = false;
    };

    CacheId
    cacheIdFor(CoreId core, bool instruction) const
    {
        if (sys->config().kind == CmpConfigKind::SharedL2)
            return static_cast<CacheId>(core * 2 + (instruction ? 0 : 1));
        return core;
    }

    void
    markDirty(std::size_t slice)
    {
        if (!queues[slice].dirty) {
            queues[slice].dirty = true;
            dirtySlices.push_back(static_cast<std::uint32_t>(slice));
        }
    }

    void
    stage(const MemAccess &mem)
    {
        const CacheId cache_id = cacheIdFor(mem.core, mem.instruction);
        const std::size_t home = mem.addr & sliceMask;
        const Tag tag = mem.addr >> sliceShift;
        ++counters.accesses;
        tr.begin(kCacheAccess);
        const CacheAccessResult res =
            sys->cache(cache_id).access(mem.addr, mem.write);
        tr.end();
        if (res.hit) {
            ++counters.cacheHits;
            if (res.writeHitClean) {
                ++counters.writeUpgrades;
                markDirty(home);
                queues[home].requests.push_back(
                    DirRequest{tag, cache_id, true});
            }
            return;
        }
        ++counters.cacheMisses;
        if (res.victim) {
            ++counters.cacheEvictions;
            const BlockAddr victim = *res.victim;
            const std::size_t victim_home = victim & sliceMask;
            markDirty(victim_home);
            SliceQueue &q = queues[victim_home];
            q.removals.push_back(StagedRemoval{
                static_cast<std::uint32_t>(q.requests.size()),
                victim >> sliceShift, cache_id});
        }
        markDirty(home);
        queues[home].requests.push_back(DirRequest{tag, cache_id, mem.write});
    }

    void
    flush()
    {
        for (const std::uint32_t s : dirtySlices)
            replaySlice(s);
        for (const std::uint32_t s : dirtySlices) {
            SliceQueue &q = queues[s];
            q.dirty = false;
            apply(s, q.requests, contexts[s]);
            q.removals.clear();
            q.requests.clear();
        }
        dirtySlices.clear();
    }

    void
    accessBatch(Directory &dir, const SliceQueue &q, std::size_t from,
                std::size_t to, DirAccessContext &ctx)
    {
        tr.begin(kDirRequest);
        dir.accessBatch(std::span<const DirRequest>(q.requests.data() + from,
                                                    to - from),
                        ctx);
        tr.end(to - from);
    }

    void
    replaySlice(std::size_t s)
    {
        SliceQueue &q = queues[s];
        Directory &dir = sys->slice(s);
        DirAccessContext &ctx = contexts[s];
        ctx.reset();
        std::size_t next = 0;
        for (const StagedRemoval &removal : q.removals) {
            if (removal.beforeRequest > next) {
                accessBatch(dir, q, next, removal.beforeRequest, ctx);
                next = removal.beforeRequest;
            }
            tr.begin(kDirRemove);
            dir.removeSharer(removal.tag, removal.cache);
            tr.end();
        }
        if (next < q.requests.size())
            accessBatch(dir, q, next, q.requests.size(), ctx);
    }

    bool
    invalidate(CacheId cache, BlockAddr addr)
    {
        tr.begin(kCacheInvalidate);
        const bool was_resident = sys->cache(cache).invalidate(addr);
        tr.end();
        return was_resident;
    }

    void
    apply(std::size_t slice, const std::vector<DirRequest> &requests,
          const DirAccessContext &ctx)
    {
        for (std::size_t i = 0; i < ctx.size(); ++i) {
            const DirAccessOutcome &out = ctx.outcome(i);
            const DirRequest &req = requests[i];
            if (costs) {
                tr.begin(kModel);
                counters.latency.add(
                    costs->accessLatency(req, out, ctx, slice));
                tr.end();
            }
            if (out.hadSharerInvalidations) {
                const BlockAddr addr = (req.tag << sliceShift) | slice;
                ctx.sharerInvalidations(out).forEachSetBit(
                    [&](std::size_t c) {
                        if (c == req.cache)
                            return;
                        if (invalidate(static_cast<CacheId>(c), addr))
                            ++counters.sharingInvalidations;
                    });
            }
            for (std::size_t e = 0; e < out.evictionCount; ++e) {
                const EvictedEntry &evicted = ctx.forcedEviction(out, e);
                const BlockAddr block = (evicted.tag << sliceShift) | slice;
                evicted.targets.forEachSetBit([&](std::size_t c) {
                    if (invalidate(static_cast<CacheId>(c), block))
                        ++counters.forcedInvalidations;
                });
            }
        }
    }

    Tracer &tr;
    std::unique_ptr<CmpSystem> sys;
    std::unique_ptr<CostModel> costs;
    std::unique_ptr<AccessSource> source;
    CmpStats counters;
    std::size_t sliceMask = 0;
    unsigned sliceShift = 0;
    std::size_t window = 1;
    std::vector<SliceQueue> queues;
    std::vector<DirAccessContext> contexts;
    std::vector<std::uint32_t> dirtySlices;
    std::uint64_t seq = 0;
    bool recordSpans = false;
};

/** A traced run: counters plus the tracer's measure-phase totals. */
struct TracedResult
{
    RunResult run;
    Tracer tracer;
    double setupMs[3] = {0.0, 0.0, 0.0}; //!< system, source, model
};

void
runTraced(const WorkloadDef &w, TracedResult &r)
{
    Tracer &tr = r.tracer;
    const auto t0 = Clock::now();
    TracedSim sim(w, tr);
    r.run.setupS = secondsSince(t0);
    r.setupMs[0] = double(tr.totals(kSetupSystem).rawNs) * 1e-6;
    r.setupMs[1] = double(tr.totals(kSetupSource).rawNs) * 1e-6;
    r.setupMs[2] = double(tr.totals(kSetupModel).rawNs) * 1e-6;

    const auto t1 = Clock::now();
    sim.run(w.options.warmupAccesses, 0);
    sim.resetStats();
    r.run.warmupS = secondsSince(t1);

    tr.clearRecords();
    sim.startRecording();
    const auto t2 = Clock::now();
    const IntervalStats iv = runMeasure(sim, w.options);
    r.run.measureS = secondsSince(t2);

    finishRun(r.run, sim.system(), sim.stats(), iv);
}

/** Write the kept span records as JSON lines. @return false on error. */
bool
writeSpans(const std::string &path, const Tracer &tracer)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const auto &records = tracer.records();
    const std::int64_t origin = records.empty() ? 0 : records[0].startNs;
    for (const Tracer::Record &r : records)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"access\": %llu}\n",
                     kSpanNames[r.kind],
                     static_cast<long long>(r.startNs - origin),
                     static_cast<long long>(r.endNs - origin), r.parent,
                     static_cast<unsigned long long>(r.access));
    return std::fclose(f) == 0;
}

// --- metrics ----------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

using Metrics = std::vector<Metric>;

/** Ratio that reads 0 when nothing was counted. */
double
per(double numerator, double denominator, double scale = 1.0)
{
    return denominator == 0.0 ? 0.0 : numerator * scale / denominator;
}

/** Per-layer metrics of one traced run (see README.md). */
Metrics
layerMetrics(const TracedResult &t, const RunResult &untraced,
             const RunResult &pregen, double timer_ns)
{
    const Tracer &tr = t.tracer;
    const double n = double(t.run.stats.accesses);
    const auto calls = [&](SpanKind k) { return double(tr.totals(k).calls); };
    const auto self = [&](SpanKind k) { return selfNs(tr, k, timer_ns); };
    const auto perCall = [&](SpanKind k) { return per(self(k), calls(k)); };

    const double workloadNs = self(kNext);
    const double cacheNs = self(kCacheAccess) + self(kCacheInvalidate);
    const double directoryNs = self(kDirRequest) + self(kDirRemove);
    const double modelNs = self(kModel);
    const double simNs = self(kAccess) + self(kSample) + self(kSnapshot);
    const double tracedNs = t.run.measureS * 1e9;

    // CmpSystem::run per access over the pre-generated stream, minus
    // the layers the traced run timed inside it. A clock read waits for
    // the wrapped call's loads, so traced self times run long; they are
    // first scaled so that all of them together equal the untraced
    // measure time.
    const double scale =
        per(untraced.measureS * 1e9,
            workloadNs + cacheNs + directoryNs + modelNs + simNs);
    const double driverNs =
        per(pregen.measureS * 1e9 -
                scale * (cacheNs + directoryNs + modelNs + self(kSample) +
                         self(kSnapshot)),
            n);

    const CmpStats &s = t.run.stats;
    const DirectoryStats &d = t.run.directory;
    const double requests = double(tr.totals(kDirRequest).items);
    return {
        {"workload.next_ns", "ns", perCall(kNext)},
        {"cache.access_ns", "ns", perCall(kCacheAccess)},
        {"cache.invalidate_ns", "ns", perCall(kCacheInvalidate)},
        {"cache.hit_ratio", "ratio", per(double(s.cacheHits), n)},
        {"cache.evictions_per_1k", "count",
         per(double(s.cacheEvictions), n, 1000.0)},
        {"cache.invalidations_per_1k", "count",
         per(double(s.sharingInvalidations + s.forcedInvalidations), n,
             1000.0)},
        {"directory.request_ns", "ns", per(self(kDirRequest), requests)},
        {"directory.remove_ns", "ns", perCall(kDirRemove)},
        {"directory.requests_per_1k", "count", per(requests, n, 1000.0)},
        {"directory.removals_per_1k", "count",
         per(calls(kDirRemove), n, 1000.0)},
        {"directory.hit_ratio", "ratio",
         per(double(d.hits), double(d.lookups))},
        {"directory.insert_attempts", "count", d.insertionAttempts.mean()},
        {"directory.forced_evictions_per_1k", "count",
         per(double(d.forcedEvictions), n, 1000.0)},
        {"directory.insert_failures", "count", double(d.insertFailures)},
        {"directory.occupancy", "ratio", s.directoryOccupancy.mean()},
        {"model.latency_ns", "ns", perCall(kModel)},
        {"model.lat_p50_cycles", "cycles", double(s.latency.percentile(500))},
        {"model.lat_p99_cycles", "cycles", double(s.latency.percentile(990))},
        {"model.lat_p999_cycles", "cycles",
         double(s.latency.percentile(999))},
        {"model.lat_samples", "count", double(s.latency.count())},
        {"sim.driver_ns", "ns", driverNs},
        {"sim.sample_us", "us", perCall(kSample) * 1e-3},
        {"sim.forced_inv_per_1k", "count",
         per(double(s.forcedInvalidations), n, 1000.0)},
        {"setup.system_ms", "ms", t.setupMs[0]},
        {"setup.source_ms", "ms", t.setupMs[1]},
        {"setup.model_ms", "ms", t.setupMs[2]},
        {"memory.cache_mb", "MiB", double(t.run.cacheBytes) / kMiB},
        {"memory.directory_mb", "MiB", double(t.run.directoryBytes) / kMiB},
        {"workload.share", "ratio", per(workloadNs, tracedNs)},
        {"cache.share", "ratio", per(cacheNs, tracedNs)},
        {"directory.share", "ratio", per(directoryNs, tracedNs)},
        {"model.share", "ratio", per(modelNs, tracedNs)},
        {"sim.share", "ratio", per(simNs, tracedNs)},
        {"trace.overhead", "ratio",
         per(t.run.setupS + t.run.warmupS + t.run.measureS,
             untraced.setupS + untraced.warmupS + untraced.measureS)},
        {"trace.timer_ns", "ns", timer_ns},
    };
}

/** Element-wise medians of several runs' metric lists. */
Metrics
medianMetrics(const std::vector<Metrics> &runs)
{
    Metrics out = runs.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> values;
        for (const Metrics &m : runs)
            values.push_back(m[i].value);
        out[i].value = median(values);
    }
    return out;
}

void
printResult(const Checks &checks, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.run),
                static_cast<unsigned long long>(checks.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

void
printCounters(const WorkloadDef &w, const std::string &seed,
              const Counters &counters)
{
    std::printf("{\"workload\": \"%s\", \"seed\": \"%s\", "
                "\"digest\": \"%016llx\", \"counters\": {",
                w.name.c_str(), seed.c_str(),
                static_cast<unsigned long long>(digestOf(counters)));
    for (std::size_t i = 0; i < counters.size(); ++i)
        std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ",
                    counters[i].first.c_str(),
                    static_cast<unsigned long long>(counters[i].second));
    std::printf("}}\n");
}

/** Checks every driver run answers to. */
void
checkRun(Checks &checks, const RunResult &r, const Counters &reference,
         const std::string &label)
{
    checks.expect(r.stats.cacheHits + r.stats.cacheMisses ==
                      r.stats.accesses,
                  label + ": cache hits + misses == accesses");
    checks.expect(r.covered,
                  label + ": directory covers caches after measure");
    checks.expectEqual(r.counters, reference,
                       label + ": counters equal runExperiment's");
}

struct Args
{
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--scale F] "
                 "[--spans-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            const unsigned long long v =
                std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed '" + value + "'");
            a.seed = v;
        } else if (flag == "--seconds" || flag == "--scale") {
            const double v = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(v > 0.0))
                usage("bad " + flag + " '" + value + "'");
            (flag == "--seconds" ? a.seconds : a.scale) = v;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace '" + value + "'");
            a.trace = value == "1";
        } else if (flag == "--spans-out") {
            a.spansOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

int
runBenchmark(const Args &args)
{
    const WorkloadDef w = defineWorkload(args.workload, args.seed, args.scale);
    const ExperimentOptions &o = w.options;
    const std::string seed =
        args.seed ? std::to_string(*args.seed) : "default";
    std::printf("workload %s seed=%s organization=%s cores=%zu "
                "window=%zu cost_model=%s warmup=%llu measure=%llu "
                "interval=%llu; closed loop, one process, one thread\n",
                w.name.c_str(), seed.c_str(),
                w.config.directory.organization.c_str(), w.config.numCores,
                w.config.batchWindow,
                o.costModel.empty() ? "none" : o.costModel.c_str(),
                static_cast<unsigned long long>(o.warmupAccesses),
                static_cast<unsigned long long>(o.measureAccesses),
                static_cast<unsigned long long>(o.intervalAccesses));
    std::fflush(stdout);

    // Reference run and discarded cold-start leg.
    const auto start = Clock::now();
    Checks checks;
    const ExperimentResult ref = runExperiment(w.config, w.params, o);
    const Counters reference = collectCounters(
        ref.system, ref.directory, ref.estimatedBytes, ref.intervals);
    checks.expect(ref.system.accesses == o.measureAccesses,
                  "runExperiment measured every requested access");
    checks.expect(ref.system.cacheHits + ref.system.cacheMisses ==
                      ref.system.accesses,
                  "runExperiment: cache hits + misses == accesses");
    printCounters(w, seed, reference);

    if (!args.trace) {
        constexpr std::size_t kMinRuns = 3;
        constexpr std::size_t kSetupsPerRun = 3; // set-up-only, beside each run
        constexpr std::size_t kMinSetups = 15;
        std::vector<RunResult> runs;
        std::vector<double> setup, measure;
        while (runs.size() < kMinRuns || secondsSince(start) < args.seconds) {
            runs.push_back(runPlain(w, false));
            checkRun(checks, runs.back(), reference,
                     "run " + std::to_string(runs.size()));
            setup.push_back(runs.back().setupS);
            measure.push_back(runs.back().measureS);
            for (std::size_t i = 0; i < kSetupsPerRun; ++i)
                setup.push_back(setupOnly(w));
        }
        while (setup.size() < kMinSetups)
            setup.push_back(setupOnly(w));

        // Interference from other work on the host only ever slows a
        // piece, and it comes and goes over the run, so each phase time
        // sums every piece's fastest time.
        const double setupS = median(setup);
        const double warmupS = phaseTime(runs, &RunResult::warmupPieces);
        const double measureS = phaseTime(runs, &RunResult::measurePieces);
        const CmpStats &s = ref.system;
        const Metrics metrics = {
            {"wall_s", "s", setupS + warmupS + measureS},
            {"setup_s", "s", setupS},
            {"warmup_accesses_per_s", "acc/s",
             double(o.warmupAccesses) / warmupS},
            {"measure_accesses_per_s", "acc/s",
             double(o.measureAccesses) / measureS},
            {"peak_rss_mb", "MiB", double(processPeakRssBytes()) / kMiB},
            {"est_mem_mb", "MiB", double(ref.estimatedBytes) / kMiB},
        };
        for (const Metric &m : metrics)
            std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("%-24s over %llu accesses per run; fastest of %zu "
                    "runs per %llu-access piece (set-up: median of %zu); "
                    "every run:",
                    "", static_cast<unsigned long long>(o.measureAccesses),
                    runs.size(),
                    static_cast<unsigned long long>(kPieceAccesses),
                    setup.size());
        for (const double t : measure)
            std::printf(" %.4g", double(o.measureAccesses) / t);
        std::printf(" acc/s\n");
        std::printf("%-24s %.6g count\n", "forced_inv_per_1k",
                    per(double(s.forcedInvalidations), double(s.accesses),
                        1000.0));
        if (s.latency.count() != 0) {
            std::printf("%-24s %llu cycles\n%-24s %llu cycles\n"
                        "%-24s %llu cycles\n%-24s over %llu samples\n",
                        "lat_p50_cycles",
                        static_cast<unsigned long long>(ref.latencyP50),
                        "lat_p99_cycles",
                        static_cast<unsigned long long>(ref.latencyP99),
                        "lat_p999_cycles",
                        static_cast<unsigned long long>(ref.latencyP999),
                        "", static_cast<unsigned long long>(
                                s.latency.count()));
        } else {
            std::printf("%-24s n/a (untimed workload)\n", "lat_*_cycles");
        }
        std::printf("%-24s %llu of checks_run %llu\n", "checks_failed",
                    static_cast<unsigned long long>(checks.failed),
                    static_cast<unsigned long long>(checks.run));
        printResult(checks, metrics);
        return 0;
    }

    const double timerNs = calibrateTimerNs();
    std::vector<Metrics> perRun;
    do {
        const RunResult untraced = runPlain(w, false);
        auto traced = std::make_unique<TracedResult>();
        runTraced(w, *traced);
        const RunResult pregen = runPlain(w, true);
        const std::string label = "traced run " +
                                  std::to_string(perRun.size() + 1);
        checkRun(checks, untraced, reference, label + " (untraced leg)");
        checkRun(checks, traced->run, reference, label);
        checks.expectEqual(traced->run.counters, untraced.counters,
                           label + ": traced counters equal untraced");
        checkRun(checks, pregen, reference,
                 label + " (pre-generated leg)");
        perRun.push_back(layerMetrics(*traced, untraced, pregen, timerNs));
        if (!args.spansOut.empty() &&
            !writeSpans(args.spansOut, traced->tracer))
            throw std::runtime_error("cannot write " + args.spansOut);
    } while (secondsSince(start) < args.seconds);

    const Metrics metrics = medianMetrics(perRun);
    for (const Metric &m : metrics)
        std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("median of %zu traced runs; %.1f ns per clock read "
                "removed from every span%s%s\n",
                perRun.size(), timerNs,
                args.spansOut.empty() ? "" : "; spans in ",
                args.spansOut.c_str());
    std::printf("%-34s %llu of checks_run %llu\n", "checks_failed",
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.run));
    printResult(checks, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // Keep freed memory in the heap: no mmap'd chunks, no trimming. The
    // cycles after the discarded first one then reuse pages that are
    // already mapped, so no timed phase pays for page faults, whose cost
    // follows the host rather than the simulator.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
