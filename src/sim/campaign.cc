#include "sim/campaign.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include <unistd.h>

namespace cdir {

namespace {

// --- JSON writing ------------------------------------------------------------
//
// The campaign format is written and read by this translation unit
// only, so a minimal deterministic writer + recursive-descent parser
// keep the repo dependency-free. Byte-identity of merge-vs-local output
// rests on two properties: every counter is an integer (exact in JSON),
// and doubles print with %.17g, which strtod() round-trips to the same
// bit pattern — so parse(write(x)) == x field-for-field, and rendering
// the reloaded struct reproduces the original bytes.

std::string
fmtU64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
fmtString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

/** Appends `"key": value` members with correct comma placement. */
class ObjectWriter
{
  public:
    explicit ObjectWriter(std::string &out) : buf(out) { buf += '{'; }

    void
    member(const char *key, const std::string &rendered_value)
    {
        if (!first)
            buf += ", ";
        first = false;
        buf += '"';
        buf += key;
        buf += "\": ";
        buf += rendered_value;
    }

    void u64(const char *key, std::uint64_t v) { member(key, fmtU64(v)); }
    void num(const char *key, double v) { member(key, fmtDouble(v)); }
    void str(const char *key, const std::string &v)
    {
        member(key, fmtString(v));
    }

    void close() { buf += '}'; }

  private:
    std::string &buf;
    bool first = true;
};

// --- JSON parsing ------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; //!< number token or decoded string contents
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue *
    find(const char *key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }

    const JsonValue &
    at(const char *key) const
    {
        if (kind != Kind::Object)
            throw std::runtime_error(std::string("campaign JSON: '") +
                                     key + "' looked up in a non-object");
        if (const JsonValue *v = find(key))
            return *v;
        throw std::runtime_error(std::string("campaign JSON: missing '") +
                                 key + "'");
    }

    std::uint64_t
    asU64() const
    {
        if (kind != Kind::Number)
            throw std::runtime_error(
                "campaign JSON: expected an integer");
        char *end = nullptr;
        errno = 0;
        const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0' || errno == ERANGE)
            throw std::runtime_error("campaign JSON: bad integer '" +
                                     text + "'");
        return v;
    }

    double
    asDouble() const
    {
        if (kind != Kind::Number)
            throw std::runtime_error("campaign JSON: expected a number");
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0')
            throw std::runtime_error("campaign JSON: bad number '" +
                                     text + "'");
        return v;
    }

    const std::string &
    asString() const
    {
        if (kind != Kind::String)
            throw std::runtime_error("campaign JSON: expected a string");
        return text;
    }

    const std::vector<JsonValue> &
    asArray() const
    {
        if (kind != Kind::Array)
            throw std::runtime_error("campaign JSON: expected an array");
        return items;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &input)
        : p(input.c_str()), end(input.c_str() + input.size())
    {
    }

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (p != end)
            fail("trailing content after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("campaign JSON: " + what);
    }

    void
    skipSpace()
    {
        while (p != end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                            *p == '\r'))
            ++p;
    }

    char
    peek()
    {
        skipSpace();
        if (p == end)
            fail("unexpected end of input");
        return *p;
    }

    void
    expect(char ch)
    {
        if (peek() != ch)
            fail(std::string("expected '") + ch + "' got '" + *p + "'");
        ++p;
    }

    bool
    consume(char ch)
    {
        if (p != end && peek() == ch) {
            ++p;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        const char ch = peek();
        if (ch == '{')
            return parseObject();
        if (ch == '[')
            return parseArray();
        if (ch == '"')
            return parseString();
        if (ch == 't' || ch == 'f')
            return parseBool();
        if (ch == 'n') {
            parseLiteral("null");
            return JsonValue{};
        }
        return parseNumber();
    }

    void
    parseLiteral(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (static_cast<std::size_t>(end - p) < len ||
            std::strncmp(p, word, len) != 0)
            fail(std::string("expected '") + word + "'");
        p += len;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (*p == 't') {
            parseLiteral("true");
            v.boolean = true;
        } else {
            parseLiteral("false");
            v.boolean = false;
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const char *start = p;
        while (p != end &&
               (std::isdigit(static_cast<unsigned char>(*p)) ||
                *p == '-' || *p == '+' || *p == '.' || *p == 'e' ||
                *p == 'E'))
            ++p;
        if (p == start)
            fail("expected a number");
        v.text.assign(start, p);
        return v;
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (true) {
            if (p == end)
                fail("unterminated string");
            const char ch = *p++;
            if (ch == '"')
                break;
            if (ch != '\\') {
                v.text += ch;
                continue;
            }
            if (p == end)
                fail("unterminated escape");
            const char esc = *p++;
            switch (esc) {
              case '"':
                v.text += '"';
                break;
              case '\\':
                v.text += '\\';
                break;
              case '/':
                v.text += '/';
                break;
              case 'n':
                v.text += '\n';
                break;
              case 't':
                v.text += '\t';
                break;
              case 'r':
                v.text += '\r';
                break;
              case 'b':
                v.text += '\b';
                break;
              case 'f':
                v.text += '\f';
                break;
              case 'u': {
                if (end - p < 4)
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = *p++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // The writer only emits \u00xx control codes; reject
                // anything wider rather than mis-decoding it.
                if (code > 0xff)
                    fail("unsupported \\u escape beyond U+00FF");
                v.text += static_cast<char>(code);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
        return v;
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (consume(']'))
            return v;
        while (true) {
            v.items.push_back(parseValue());
            if (consume(']'))
                return v;
            expect(',');
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (consume('}'))
            return v;
        while (true) {
            JsonValue key = parseString();
            expect(':');
            v.members.emplace_back(std::move(key.text), parseValue());
            if (consume('}'))
                return v;
            expect(',');
        }
    }

    const char *p;
    const char *end;
};

// --- struct <-> JSON ---------------------------------------------------------

std::string
runningMeanToJson(const RunningMean &m)
{
    std::string out;
    ObjectWriter w(out);
    w.u64("count", m.count());
    w.num("sum", m.sum());
    w.close();
    return out;
}

RunningMean
parseRunningMean(const JsonValue &v)
{
    RunningMean m;
    m.restore(v.at("count").asU64(), v.at("sum").asDouble());
    return m;
}

std::string
histogramToJson(const Histogram &h)
{
    std::string out = "{\"max\": " + fmtU64(h.maxValue()) +
                      ", \"buckets\": [";
    bool first = true;
    for (std::size_t v = 0; v <= h.maxValue(); ++v) {
        if (h.at(v) == 0)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += "[" + fmtU64(v) + ", " + fmtU64(h.at(v)) + "]";
    }
    out += "]}";
    return out;
}

Histogram
parseHistogram(const JsonValue &v)
{
    Histogram h(static_cast<std::size_t>(v.at("max").asU64()));
    for (const JsonValue &pair : v.at("buckets").asArray()) {
        const auto &entries = pair.asArray();
        if (entries.size() != 2)
            throw std::runtime_error(
                "campaign JSON: histogram bucket is not a pair");
        h.addCount(entries[0].asU64(), entries[1].asU64());
    }
    return h;
}

std::string
latencyHistogramToJson(const LatencyHistogram &h)
{
    std::string out = "{\"sum\": " + fmtU64(h.totalCycles()) +
                      ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        if (h.bucketAt(b) == 0)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += "[" + fmtU64(b) + ", " + fmtU64(h.bucketAt(b)) + "]";
    }
    out += "]}";
    return out;
}

LatencyHistogram
parseLatencyHistogram(const JsonValue &v)
{
    std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
    for (const JsonValue &pair : v.at("buckets").asArray()) {
        const auto &entries = pair.asArray();
        if (entries.size() != 2)
            throw std::runtime_error(
                "campaign JSON: latency bucket is not a pair");
        buckets.emplace_back(
            static_cast<std::size_t>(entries[0].asU64()),
            entries[1].asU64());
    }
    LatencyHistogram h;
    h.restore(v.at("sum").asU64(), buckets);
    return h;
}

std::string
directoryStatsToJson(const DirectoryStats &s)
{
    std::string out;
    ObjectWriter w(out);
    w.u64("lookups", s.lookups);
    w.u64("hits", s.hits);
    w.u64("insertions", s.insertions);
    w.u64("sharer_adds", s.sharerAdds);
    w.u64("write_upgrades", s.writeUpgrades);
    w.u64("sharer_removals", s.sharerRemovals);
    w.u64("entry_frees", s.entryFrees);
    w.u64("forced_evictions", s.forcedEvictions);
    w.u64("forced_block_invalidations", s.forcedBlockInvalidations);
    w.u64("insert_failures", s.insertFailures);
    w.member("insertion_attempts",
             runningMeanToJson(s.insertionAttempts));
    w.member("attempt_histogram", histogramToJson(s.attemptHistogram));
    w.close();
    return out;
}

DirectoryStats
parseDirectoryStats(const JsonValue &v)
{
    DirectoryStats s;
    s.lookups = v.at("lookups").asU64();
    s.hits = v.at("hits").asU64();
    s.insertions = v.at("insertions").asU64();
    s.sharerAdds = v.at("sharer_adds").asU64();
    s.writeUpgrades = v.at("write_upgrades").asU64();
    s.sharerRemovals = v.at("sharer_removals").asU64();
    s.entryFrees = v.at("entry_frees").asU64();
    s.forcedEvictions = v.at("forced_evictions").asU64();
    s.forcedBlockInvalidations =
        v.at("forced_block_invalidations").asU64();
    s.insertFailures = v.at("insert_failures").asU64();
    s.insertionAttempts = parseRunningMean(v.at("insertion_attempts"));
    s.attemptHistogram = parseHistogram(v.at("attempt_histogram"));
    return s;
}

std::string
cmpStatsToJson(const CmpStats &s)
{
    std::string out;
    ObjectWriter w(out);
    w.u64("accesses", s.accesses);
    w.u64("cache_hits", s.cacheHits);
    w.u64("cache_misses", s.cacheMisses);
    w.u64("write_upgrades", s.writeUpgrades);
    w.u64("cache_evictions", s.cacheEvictions);
    w.u64("sharing_invalidations", s.sharingInvalidations);
    w.u64("forced_invalidations", s.forcedInvalidations);
    w.member("directory_occupancy",
             runningMeanToJson(s.directoryOccupancy));
    w.member("latency", latencyHistogramToJson(s.latency));
    w.close();
    return out;
}

CmpStats
parseCmpStats(const JsonValue &v)
{
    CmpStats s;
    s.accesses = v.at("accesses").asU64();
    s.cacheHits = v.at("cache_hits").asU64();
    s.cacheMisses = v.at("cache_misses").asU64();
    s.writeUpgrades = v.at("write_upgrades").asU64();
    s.cacheEvictions = v.at("cache_evictions").asU64();
    s.sharingInvalidations = v.at("sharing_invalidations").asU64();
    s.forcedInvalidations = v.at("forced_invalidations").asU64();
    s.directoryOccupancy = parseRunningMean(v.at("directory_occupancy"));
    s.latency = parseLatencyHistogram(v.at("latency"));
    return s;
}

std::string
intervalStatsToJson(const IntervalStats &s)
{
    std::string out = "{\"interval\": " + fmtU64(s.intervalAccesses) +
                      ", \"windows\": [";
    for (std::size_t i = 0; i < s.windows.size(); ++i) {
        const IntervalRecord &r = s.windows[i];
        if (i != 0)
            out += ", ";
        ObjectWriter w(out);
        w.u64("accesses", r.accesses);
        w.u64("cache_misses", r.cacheMisses);
        w.u64("insertions", r.insertions);
        w.u64("attempt_sum", r.attemptSum);
        w.u64("attempt_count", r.insertionAttemptCount);
        w.u64("forced_evictions", r.forcedEvictions);
        w.u64("sharing_invalidations", r.sharingInvalidations);
        w.u64("forced_invalidations", r.forcedInvalidations);
        w.u64("occupied", r.occupiedEntries);
        w.u64("capacity", r.capacityEntries);
        w.member("latency", latencyHistogramToJson(r.latency));
        w.close();
    }
    out += "]}";
    return out;
}

IntervalStats
parseIntervalStats(const JsonValue &v)
{
    IntervalStats s;
    s.intervalAccesses = v.at("interval").asU64();
    for (const JsonValue &win : v.at("windows").asArray()) {
        IntervalRecord r;
        r.accesses = win.at("accesses").asU64();
        r.cacheMisses = win.at("cache_misses").asU64();
        r.insertions = win.at("insertions").asU64();
        r.attemptSum = win.at("attempt_sum").asU64();
        r.insertionAttemptCount = win.at("attempt_count").asU64();
        r.forcedEvictions = win.at("forced_evictions").asU64();
        r.sharingInvalidations =
            win.at("sharing_invalidations").asU64();
        r.forcedInvalidations = win.at("forced_invalidations").asU64();
        r.occupiedEntries = win.at("occupied").asU64();
        r.capacityEntries = win.at("capacity").asU64();
        r.latency = parseLatencyHistogram(win.at("latency"));
        s.windows.push_back(std::move(r));
    }
    return s;
}

std::string
cmpConfigToJson(const CmpConfig &c)
{
    std::string dir;
    {
        ObjectWriter w(dir);
        w.str("organization", c.directory.organization);
        w.u64("num_caches", c.directory.numCaches);
        w.u64("ways", c.directory.ways);
        w.u64("sets", c.directory.sets);
        w.u64("format", static_cast<std::uint64_t>(c.directory.format));
        w.u64("hash", static_cast<std::uint64_t>(c.directory.hash));
        w.u64("max_attempts", c.directory.maxAttempts);
        w.u64("bucket_slots", c.directory.bucketSlots);
        w.u64("stash_entries", c.directory.stashEntries);
        w.u64("hash_seed", c.directory.hashSeed);
        w.u64("tracked_cache_assoc", c.directory.trackedCacheAssoc);
        w.u64("tagless_bucket_bits", c.directory.taglessBucketBits);
        w.close();
    }
    std::string out;
    ObjectWriter w(out);
    w.u64("kind", static_cast<std::uint64_t>(c.kind));
    w.u64("num_cores", c.numCores);
    w.u64("num_slices", c.numSlices);
    w.u64("cache_sets", c.privateCache.numSets);
    w.u64("cache_assoc", c.privateCache.assoc);
    w.u64("batch_window", c.batchWindow);
    w.member("dir", dir);
    w.close();
    return out;
}

/** @p v as an enum value in [0, @p last]; throws when out of range. */
template <typename Enum>
Enum
checkedEnum(const JsonValue &v, const char *what, Enum last)
{
    const std::uint64_t raw = v.asU64();
    if (raw > static_cast<std::uint64_t>(last))
        throw std::runtime_error(std::string("campaign JSON: ") + what +
                                 " out of range: " + fmtU64(raw));
    return static_cast<Enum>(raw);
}

CmpConfig
parseCmpConfig(const JsonValue &v)
{
    CmpConfig c;
    c.kind = checkedEnum(v.at("kind"), "config kind", kLastCmpConfigKind);
    c.numCores = static_cast<std::size_t>(v.at("num_cores").asU64());
    c.numSlices = static_cast<std::size_t>(v.at("num_slices").asU64());
    c.privateCache.numSets =
        static_cast<std::size_t>(v.at("cache_sets").asU64());
    c.privateCache.assoc =
        static_cast<unsigned>(v.at("cache_assoc").asU64());
    c.batchWindow =
        static_cast<std::size_t>(v.at("batch_window").asU64());
    const JsonValue &d = v.at("dir");
    c.directory.organization = d.at("organization").asString();
    c.directory.numCaches =
        static_cast<std::size_t>(d.at("num_caches").asU64());
    c.directory.ways = static_cast<unsigned>(d.at("ways").asU64());
    c.directory.sets = static_cast<std::size_t>(d.at("sets").asU64());
    c.directory.format =
        checkedEnum(d.at("format"), "sharer format", kLastSharerFormat);
    c.directory.hash = checkedEnum(d.at("hash"), "hash kind", kLastHashKind);
    c.directory.maxAttempts =
        static_cast<unsigned>(d.at("max_attempts").asU64());
    c.directory.bucketSlots =
        static_cast<unsigned>(d.at("bucket_slots").asU64());
    c.directory.stashEntries =
        static_cast<unsigned>(d.at("stash_entries").asU64());
    c.directory.hashSeed = d.at("hash_seed").asU64();
    c.directory.trackedCacheAssoc =
        static_cast<unsigned>(d.at("tracked_cache_assoc").asU64());
    c.directory.taglessBucketBits =
        static_cast<std::size_t>(d.at("tagless_bucket_bits").asU64());
    return c;
}

std::string
workloadParamsToJson(const WorkloadParams &p)
{
    std::string out;
    ObjectWriter w(out);
    w.str("name", p.name);
    w.u64("num_cores", p.numCores);
    w.str("trace_path", p.tracePath);
    w.str("scenario_spec", p.scenarioSpec);
    w.u64("code_blocks", p.codeBlocks);
    w.u64("shared_blocks", p.sharedBlocks);
    w.u64("private_blocks_per_core", p.privateBlocksPerCore);
    w.num("instruction_fraction", p.instructionFraction);
    w.num("shared_data_fraction", p.sharedDataFraction);
    w.num("write_fraction", p.writeFraction);
    w.num("code_theta", p.codeTheta);
    w.num("shared_theta", p.sharedTheta);
    w.num("private_theta", p.privateTheta);
    w.u64("seed", p.seed);
    w.close();
    return out;
}

WorkloadParams
parseWorkloadParams(const JsonValue &v)
{
    WorkloadParams p;
    p.name = v.at("name").asString();
    p.numCores = static_cast<std::size_t>(v.at("num_cores").asU64());
    p.tracePath = v.at("trace_path").asString();
    p.scenarioSpec = v.at("scenario_spec").asString();
    p.codeBlocks = static_cast<std::size_t>(v.at("code_blocks").asU64());
    p.sharedBlocks =
        static_cast<std::size_t>(v.at("shared_blocks").asU64());
    p.privateBlocksPerCore =
        static_cast<std::size_t>(v.at("private_blocks_per_core").asU64());
    p.instructionFraction = v.at("instruction_fraction").asDouble();
    p.sharedDataFraction = v.at("shared_data_fraction").asDouble();
    p.writeFraction = v.at("write_fraction").asDouble();
    p.codeTheta = v.at("code_theta").asDouble();
    p.sharedTheta = v.at("shared_theta").asDouble();
    p.privateTheta = v.at("private_theta").asDouble();
    p.seed = v.at("seed").asU64();
    return p;
}

std::string
experimentOptionsToJson(const ExperimentOptions &o)
{
    std::string out;
    ObjectWriter w(out);
    w.u64("warmup", o.warmupAccesses);
    w.u64("measure", o.measureAccesses);
    w.u64("occupancy_sample_every", o.occupancySampleEvery);
    w.u64("interval_accesses", o.intervalAccesses);
    w.str("cost_model", o.costModel);
    w.u64("probe_every", o.probeEvery);
    w.close();
    return out;
}

ExperimentOptions
parseExperimentOptions(const JsonValue &v)
{
    ExperimentOptions o;
    o.warmupAccesses = v.at("warmup").asU64();
    o.measureAccesses = v.at("measure").asU64();
    o.occupancySampleEvery = v.at("occupancy_sample_every").asU64();
    o.intervalAccesses = v.at("interval_accesses").asU64();
    o.costModel = v.at("cost_model").asString();
    // Optional for manifests written before the feedback subsystem.
    if (const JsonValue *pe = v.find("probe_every"))
        o.probeEvery = pe->asU64();
    return o;
}

ExperimentResult
parseExperimentResultValue(const JsonValue &v)
{
    ExperimentResult r;
    r.workload = v.at("workload").asString();
    r.organization = v.at("organization").asString();
    r.avgInsertionAttempts = v.at("avg_insertion_attempts").asDouble();
    r.forcedInvalidationRate =
        v.at("forced_invalidation_rate").asDouble();
    r.avgOccupancy = v.at("avg_occupancy").asDouble();
    r.attemptHistogram = parseHistogram(v.at("attempt_histogram"));
    r.directoryCapacity =
        static_cast<std::size_t>(v.at("directory_capacity").asU64());
    r.directory = parseDirectoryStats(v.at("directory"));
    r.system = parseCmpStats(v.at("system"));
    r.intervals = parseIntervalStats(v.at("intervals"));
    r.costModel = v.at("cost_model").asString();
    r.latencyP50 = v.at("latency_p50").asU64();
    r.latencyP99 = v.at("latency_p99").asU64();
    r.latencyP999 = v.at("latency_p999").asU64();
    // Optional for shards written before footprint accounting existed.
    if (const JsonValue *eb = v.find("estimated_bytes"))
        r.estimatedBytes = eb->asU64();
    // Optional for shards written before the feedback subsystem.
    if (const JsonValue *fe = v.find("feedback_events"))
        r.feedbackEvents = fe->asU64();
    if (const JsonValue *fd = v.find("feedback_digest"))
        r.feedbackDigest = fd->asU64();
    if (const JsonValue *rl = v.find("ramp_final_level"))
        r.rampFinalLevel = rl->asU64();
    if (const JsonValue *rk = v.find("ramp_knee_level"))
        r.rampKneeLevel = rk->asU64();
    if (const JsonValue *km = v.find("ramp_knee_metric"))
        r.rampKneeMetric = km->asDouble();
    if (const JsonValue *cm = v.find("ramp_cross_metric"))
        r.rampCrossMetric = cm->asDouble();
    return r;
}

// --- files -------------------------------------------------------------------

std::string
readFileOrThrow(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw std::runtime_error(path + ": " + std::strerror(errno));
    std::string content;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, got);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed)
        throw std::runtime_error(path + ": read failed");
    return content;
}

/**
 * Crash-atomic publication: the content lands under a temporary name
 * (unique per process, so concurrent workers never collide) and is
 * moved over the final path with rename(), which POSIX guarantees is
 * atomic within a filesystem. Any observer therefore sees either no
 * file or the complete file — never a torn prefix.
 */
void
atomicWriteFile(const std::string &path, const std::string &content)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw std::runtime_error(tmp + ": " + std::strerror(errno));
    const bool wrote =
        std::fwrite(content.data(), 1, content.size(), f) ==
        content.size();
    const bool flushed = std::fflush(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !flushed || !closed) {
        std::remove(tmp.c_str());
        throw std::runtime_error(tmp + ": write failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string err = std::strerror(errno);
        std::remove(tmp.c_str());
        throw std::runtime_error("rename " + tmp + " -> " + path +
                                 ": " + err);
    }
}

// --- cell serialization ------------------------------------------------------

std::string
campaignCellToJson(const CampaignCell &cell)
{
    std::string out;
    ObjectWriter w(out);
    w.str("id", cell.id);
    w.u64("spec", cell.specIndex);
    w.u64("config_index", cell.configIndex);
    w.u64("workload_index", cell.workloadIndex);
    w.u64("options_index", cell.optionsIndex);
    w.str("config_label", cell.configLabel);
    w.str("workload_label", cell.workloadLabel);
    w.str("options_label", cell.optionsLabel);
    w.member("config", cmpConfigToJson(cell.config));
    w.member("workload", workloadParamsToJson(cell.workload));
    w.member("options", experimentOptionsToJson(cell.options));
    w.close();
    return out;
}

CampaignCell
parseCampaignCell(const JsonValue &v)
{
    CampaignCell cell;
    cell.id = v.at("id").asString();
    cell.specIndex = static_cast<std::size_t>(v.at("spec").asU64());
    cell.configIndex =
        static_cast<std::size_t>(v.at("config_index").asU64());
    cell.workloadIndex =
        static_cast<std::size_t>(v.at("workload_index").asU64());
    cell.optionsIndex =
        static_cast<std::size_t>(v.at("options_index").asU64());
    cell.configLabel = v.at("config_label").asString();
    cell.workloadLabel = v.at("workload_label").asString();
    cell.optionsLabel = v.at("options_label").asString();
    cell.config = parseCmpConfig(v.at("config"));
    cell.workload = parseWorkloadParams(v.at("workload"));
    cell.options = parseExperimentOptions(v.at("options"));
    const std::string expected = campaignCellId(cell);
    if (cell.id != expected)
        throw std::runtime_error(
            "campaign manifest: cell id '" + cell.id +
            "' does not match its content (expected " + expected +
            ") — the manifest was edited or corrupted");
    return cell;
}

std::uint64_t
fnv1a(std::uint64_t hash, const std::string &data)
{
    for (const char ch : data) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

} // namespace

// --- public API --------------------------------------------------------------

std::string
CampaignCell::label() const
{
    return sweepCellLabel(configLabel, workloadLabel, optionsLabel);
}

std::string
campaignCellId(const CampaignCell &cell)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    hash = fnv1a(hash, fmtU64(cell.specIndex));
    hash = fnv1a(hash, cell.label());
    hash = fnv1a(hash, cmpConfigToJson(cell.config));
    hash = fnv1a(hash, workloadParamsToJson(cell.workload));
    hash = fnv1a(hash, experimentOptionsToJson(cell.options));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

CampaignManifest
buildCampaignManifest(std::span<const SweepSpec> specs,
                      const SweepRunner &runner, const std::string &tool)
{
    // This enumeration must stay in lockstep with SweepRunner::runMany:
    // same cell order, same filter semantics, same implicit default
    // options point — the merge-vs-in-process byte-identity guarantee
    // depends on both walking the identical cell list.
    static const OptionsAxisPoint default_options{"",
                                                  ExperimentOptions{}};
    const auto optionsPoint = [](const SweepSpec &spec, std::size_t o)
        -> const OptionsAxisPoint & {
        return spec.optionsAxis().empty() ? default_options
                                          : spec.optionsAxis()[o];
    };

    CampaignManifest manifest;
    manifest.tool = tool;
    manifest.specCount = specs.size();
    for (std::size_t g = 0; g < specs.size(); ++g) {
        const SweepSpec &spec = specs[g];
        for (std::size_t c = 0; c < spec.configs().size(); ++c) {
            for (std::size_t w = 0; w < spec.workloads().size(); ++w) {
                for (std::size_t o = 0; o < spec.optionsPoints(); ++o) {
                    CampaignCell cell;
                    cell.specIndex = g;
                    cell.configIndex = c;
                    cell.workloadIndex = w;
                    cell.optionsIndex = o;
                    cell.configLabel = spec.configs()[c].label;
                    cell.workloadLabel = spec.workloads()[w].label;
                    cell.optionsLabel = optionsPoint(spec, o).label;
                    if (!runner.matchesFilter(cell.label()))
                        continue;
                    cell.config = spec.configs()[c].config;
                    cell.workload = spec.workloads()[w].workload;
                    cell.options = optionsPoint(spec, o).options;
                    cell.id = campaignCellId(cell);
                    manifest.cells.push_back(std::move(cell));
                }
            }
        }
    }
    return manifest;
}

std::string
campaignManifestToJson(const CampaignManifest &manifest)
{
    std::string out = "{\"format\": \"cdir-campaign-manifest\", "
                      "\"version\": " +
                      fmtU64(CampaignManifest::kVersion) +
                      ", \"tool\": " + fmtString(manifest.tool) +
                      ", \"spec_count\": " + fmtU64(manifest.specCount) +
                      ",\n \"cells\": [";
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        out += i == 0 ? "\n  " : ",\n  ";
        out += campaignCellToJson(manifest.cells[i]);
    }
    out += "\n ]}\n";
    return out;
}

CampaignManifest
parseCampaignManifest(const std::string &json)
{
    const JsonValue doc = JsonParser(json).parseDocument();
    if (doc.at("format").asString() != "cdir-campaign-manifest")
        throw std::runtime_error(
            "not a campaign manifest (format: '" +
            doc.at("format").asString() + "')");
    if (doc.at("version").asU64() != CampaignManifest::kVersion)
        throw std::runtime_error(
            "unsupported campaign manifest version " +
            fmtU64(doc.at("version").asU64()) + " (tool supports " +
            fmtU64(CampaignManifest::kVersion) + ")");
    CampaignManifest manifest;
    manifest.tool = doc.at("tool").asString();
    manifest.specCount =
        static_cast<std::size_t>(doc.at("spec_count").asU64());
    for (const JsonValue &cell : doc.at("cells").asArray())
        manifest.cells.push_back(parseCampaignCell(cell));
    for (const CampaignCell &cell : manifest.cells)
        if (cell.specIndex >= manifest.specCount)
            throw std::runtime_error(
                "campaign manifest: cell " + cell.id +
                " names spec " + fmtU64(cell.specIndex) +
                " but spec_count is " + fmtU64(manifest.specCount));
    return manifest;
}

void
writeCampaignManifest(const CampaignManifest &manifest,
                      const std::string &path)
{
    atomicWriteFile(path, campaignManifestToJson(manifest));
}

CampaignManifest
readCampaignManifest(const std::string &path)
{
    try {
        return parseCampaignManifest(readFileOrThrow(path));
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

std::string
campaignShardDir(const std::string &manifest_path)
{
    return manifest_path + ".shards";
}

std::string
campaignShardPath(const std::string &shard_dir,
                  const std::string &cell_id)
{
    return shard_dir + "/cell-" + cell_id + ".json";
}

void
writeCampaignShard(const std::string &shard_dir,
                   const std::string &cell_id,
                   const ExperimentResult &result)
{
    std::string doc = "{\"format\": \"cdir-campaign-shard\", "
                      "\"version\": " +
                      fmtU64(CampaignManifest::kVersion) +
                      ", \"cell\": " + fmtString(cell_id) +
                      ",\n \"result\": " +
                      experimentResultToJson(result) + "}\n";
    atomicWriteFile(campaignShardPath(shard_dir, cell_id), doc);
}

bool
readCampaignShard(const std::string &shard_dir,
                  const std::string &cell_id, ExperimentResult &out)
{
    const std::string path = campaignShardPath(shard_dir, cell_id);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return false;
    try {
        const JsonValue doc =
            JsonParser(readFileOrThrow(path)).parseDocument();
        if (doc.at("format").asString() != "cdir-campaign-shard")
            throw std::runtime_error("not a campaign shard");
        if (doc.at("version").asU64() != CampaignManifest::kVersion)
            throw std::runtime_error("unsupported shard version");
        if (doc.at("cell").asString() != cell_id)
            throw std::runtime_error(
                "shard is for cell " + doc.at("cell").asString());
        out = parseExperimentResultValue(doc.at("result"));
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
    return true;
}

std::string
experimentResultToJson(const ExperimentResult &result)
{
    std::string out;
    ObjectWriter w(out);
    w.str("workload", result.workload);
    w.str("organization", result.organization);
    w.num("avg_insertion_attempts", result.avgInsertionAttempts);
    w.num("forced_invalidation_rate", result.forcedInvalidationRate);
    w.num("avg_occupancy", result.avgOccupancy);
    w.member("attempt_histogram",
             histogramToJson(result.attemptHistogram));
    w.u64("directory_capacity", result.directoryCapacity);
    w.member("directory", directoryStatsToJson(result.directory));
    w.member("system", cmpStatsToJson(result.system));
    w.member("intervals", intervalStatsToJson(result.intervals));
    w.str("cost_model", result.costModel);
    w.u64("latency_p50", result.latencyP50);
    w.u64("latency_p99", result.latencyP99);
    w.u64("latency_p999", result.latencyP999);
    // estimatedBytes is deterministic for a given access history, so it
    // checkpoints safely. peakRssBytes / wallSeconds are environmental
    // (host- and concurrency-dependent) and are deliberately NOT
    // serialized: a campaign-loaded cell reports 0 for them.
    w.u64("estimated_bytes", result.estimatedBytes);
    // Feedback witness and SLO-ramp knee: deterministic functions of
    // the access history, safe to checkpoint and merge.
    w.u64("feedback_events", result.feedbackEvents);
    w.u64("feedback_digest", result.feedbackDigest);
    w.u64("ramp_final_level", result.rampFinalLevel);
    w.u64("ramp_knee_level", result.rampKneeLevel);
    w.num("ramp_knee_metric", result.rampKneeMetric);
    w.num("ramp_cross_metric", result.rampCrossMetric);
    w.close();
    return out;
}

ExperimentResult
parseExperimentResult(const std::string &json)
{
    return parseExperimentResultValue(
        JsonParser(json).parseDocument());
}

CampaignRunReport
runCampaignCells(const CampaignManifest &manifest,
                 const std::string &shard_dir, std::size_t begin,
                 std::size_t end, unsigned jobs)
{
    if (begin > end || end > manifest.cells.size())
        throw std::runtime_error(
            "campaign range " + fmtU64(begin) + ".." + fmtU64(end) +
            " out of bounds (manifest has " +
            fmtU64(manifest.cells.size()) + " cells)");
    std::filesystem::create_directories(shard_dir);

    CampaignRunReport report;
    std::vector<std::size_t> pending;
    for (std::size_t i = begin; i < end; ++i) {
        std::error_code ec;
        if (std::filesystem::exists(
                campaignShardPath(shard_dir, manifest.cells[i].id),
                ec)) {
            ++report.skipped;
        } else {
            pending.push_back(i);
        }
    }

    // A worker killed mid-write leaves `cell-<id>.json.tmp.<pid>`
    // behind. Sweep those for *this run's pending cells only*: a cell
    // another live worker owns is not pending here (ranges are
    // disjoint), and its in-flight tmp file must survive.
    {
        std::vector<std::string> stale_prefixes;
        stale_prefixes.reserve(pending.size());
        for (const std::size_t i : pending)
            stale_prefixes.push_back("cell-" + manifest.cells[i].id +
                                     ".json.tmp.");
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(shard_dir, ec)) {
            const std::string name = entry.path().filename().string();
            for (const std::string &prefix : stale_prefixes) {
                if (name.size() > prefix.size() &&
                    name.compare(0, prefix.size(), prefix) == 0) {
                    std::filesystem::remove(entry.path(), ec);
                    break;
                }
            }
        }
    }

    std::vector<std::string> failures(pending.size());
    parallelFor(jobs, pending.size(), [&](std::size_t p) {
        const CampaignCell &cell = manifest.cells[pending[p]];
        try {
            const ExperimentResult result = runExperiment(
                cell.config, cell.workload, cell.options);
            writeCampaignShard(shard_dir, cell.id, result);
        } catch (const std::exception &e) {
            failures[p] = e.what();
        }
    });
    for (std::size_t p = 0; p < pending.size(); ++p) {
        if (failures[p].empty()) {
            ++report.ran;
            continue;
        }
        ++report.failed;
        std::fprintf(stderr, "campaign cell '%s' (%s) failed: %s\n",
                     manifest.cells[pending[p]].label().c_str(),
                     manifest.cells[pending[p]].id.c_str(),
                     failures[p].c_str());
    }
    return report;
}

CampaignStatus
campaignStatus(const CampaignManifest &manifest,
               const std::string &shard_dir)
{
    CampaignStatus status;
    status.total = manifest.cells.size();
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        std::error_code ec;
        if (std::filesystem::exists(
                campaignShardPath(shard_dir, manifest.cells[i].id), ec))
            ++status.done;
        else
            status.missing.push_back(i);
    }
    return status;
}

std::vector<std::vector<SweepRecord>>
mergeCampaignShards(const CampaignManifest &manifest,
                    const std::string &shard_dir)
{
    const CampaignStatus status = campaignStatus(manifest, shard_dir);
    if (!status.missing.empty()) {
        std::string what = "campaign incomplete: " +
                           fmtU64(status.missing.size()) + " of " +
                           fmtU64(status.total) + " cells missing:";
        const std::size_t shown =
            std::min<std::size_t>(status.missing.size(), 8);
        for (std::size_t i = 0; i < shown; ++i) {
            const CampaignCell &cell =
                manifest.cells[status.missing[i]];
            what += "\n  [" + fmtU64(status.missing[i]) + "] " +
                    cell.label() + " (" + cell.id + ")";
        }
        if (shown < status.missing.size())
            what += "\n  ... and " +
                    fmtU64(status.missing.size() - shown) + " more";
        throw std::runtime_error(what);
    }

    std::vector<std::vector<SweepRecord>> groups(manifest.specCount);
    for (const CampaignCell &cell : manifest.cells) {
        SweepRecord rec;
        rec.configIndex = cell.configIndex;
        rec.workloadIndex = cell.workloadIndex;
        rec.optionsIndex = cell.optionsIndex;
        rec.configLabel = cell.configLabel;
        rec.workloadLabel = cell.workloadLabel;
        rec.optionsLabel = cell.optionsLabel;
        if (!readCampaignShard(shard_dir, cell.id, rec.result))
            throw std::runtime_error(
                "campaign shard for cell " + cell.id +
                " vanished during merge");
        groups[cell.specIndex].push_back(std::move(rec));
    }
    return groups;
}

std::vector<std::vector<SweepRecord>>
runCampaignInProcess(const CampaignManifest &manifest,
                     const SweepRunner &runner)
{
    std::vector<ExperimentResult> results(manifest.cells.size());
    std::vector<std::string> failures(manifest.cells.size());
    parallelFor(runner.options().jobs, manifest.cells.size(),
                [&](std::size_t i) {
                    const CampaignCell &cell = manifest.cells[i];
                    try {
                        results[i] = runExperiment(
                            cell.config, cell.workload, cell.options);
                    } catch (const std::exception &e) {
                        failures[i] = e.what();
                    }
                });

    std::vector<std::vector<SweepRecord>> groups(manifest.specCount);
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        const CampaignCell &cell = manifest.cells[i];
        if (!failures[i].empty()) {
            std::fprintf(stderr, "sweep cell '%s' failed: %s\n",
                         cell.label().c_str(), failures[i].c_str());
            continue;
        }
        SweepRecord rec;
        rec.configIndex = cell.configIndex;
        rec.workloadIndex = cell.workloadIndex;
        rec.optionsIndex = cell.optionsIndex;
        rec.configLabel = cell.configLabel;
        rec.workloadLabel = cell.workloadLabel;
        rec.optionsLabel = cell.optionsLabel;
        rec.result = std::move(results[i]);
        groups[cell.specIndex].push_back(std::move(rec));
    }
    return groups;
}

std::vector<std::vector<SweepRecord>>
parseCampaignResults(const CampaignManifest &manifest,
                     const std::string &json)
{
    const JsonValue doc = JsonParser(json).parseDocument();
    if (doc.at("format").asString() != "cdir-campaign-results")
        throw std::runtime_error(
            "not a campaign results document (format: '" +
            doc.at("format").asString() + "')");
    if (doc.at("version").asU64() != CampaignManifest::kVersion)
        throw std::runtime_error(
            "unsupported campaign results version " +
            fmtU64(doc.at("version").asU64()));
    if (doc.at("tool").asString() != manifest.tool)
        throw std::runtime_error(
            "results were produced for tool '" +
            doc.at("tool").asString() + "', not '" + manifest.tool +
            "'");
    if (doc.at("spec_count").asU64() != manifest.specCount)
        throw std::runtime_error("results spec count mismatch");
    const auto &cells = doc.at("cells").asArray();
    if (cells.size() != manifest.cells.size())
        throw std::runtime_error(
            "results hold " + fmtU64(cells.size()) +
            " cells but this grid has " +
            fmtU64(manifest.cells.size()) +
            " — the grid (or its --filter) changed since the campaign "
            "ran");

    std::vector<std::vector<SweepRecord>> groups(manifest.specCount);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CampaignCell &cell = manifest.cells[i];
        if (cells[i].at("id").asString() != cell.id)
            throw std::runtime_error(
                "results cell " + fmtU64(i) + " has id " +
                cells[i].at("id").asString() + " but this grid's cell " +
                fmtU64(i) + " (" + cell.label() + ") hashes to " +
                cell.id +
                " — the grid changed since the campaign ran");
        SweepRecord rec;
        rec.configIndex = cell.configIndex;
        rec.workloadIndex = cell.workloadIndex;
        rec.optionsIndex = cell.optionsIndex;
        rec.configLabel = cell.configLabel;
        rec.workloadLabel = cell.workloadLabel;
        rec.optionsLabel = cell.optionsLabel;
        rec.result = parseExperimentResultValue(cells[i].at("result"));
        groups[cell.specIndex].push_back(std::move(rec));
    }
    return groups;
}

std::string
campaignResultsToJson(const CampaignManifest &manifest,
                      const std::vector<std::vector<SweepRecord>> &groups)
{
    // Flatten the groups back into manifest cell order. Dropped cells
    // (a failed experiment) have no record; a results document is only
    // written for complete campaigns, so refuse to serialize holes.
    std::vector<const SweepRecord *> ordered(manifest.cells.size(),
                                             nullptr);
    std::vector<std::size_t> cursor(manifest.specCount, 0);
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        const std::size_t g = manifest.cells[i].specIndex;
        if (g < groups.size() && cursor[g] < groups[g].size())
            ordered[i] = &groups[g][cursor[g]++];
    }
    for (std::size_t i = 0; i < ordered.size(); ++i)
        if (!ordered[i])
            throw std::runtime_error(
                "campaign results incomplete: no result for cell " +
                manifest.cells[i].id + " (" +
                manifest.cells[i].label() + ")");

    std::string out = "{\"format\": \"cdir-campaign-results\", "
                      "\"version\": " +
                      fmtU64(CampaignManifest::kVersion) +
                      ", \"tool\": " + fmtString(manifest.tool) +
                      ", \"spec_count\": " + fmtU64(manifest.specCount) +
                      ",\n \"cells\": [";
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
        out += i == 0 ? "\n  " : ",\n  ";
        out += "{\"id\": " + fmtString(manifest.cells[i].id) +
               ", \"result\": " +
               experimentResultToJson(ordered[i]->result) + "}";
    }
    out += "\n ]}\n";
    return out;
}

std::vector<std::vector<SweepRecord>>
campaignRunMany(const HarnessOptions &cli, const SweepRunner &runner,
                std::span<const SweepSpec> specs, const std::string &tool)
{
    if (!cli.campaignManifest.empty()) {
        const CampaignManifest manifest =
            buildCampaignManifest(specs, runner, tool);
        try {
            writeCampaignManifest(manifest, cli.campaignManifest);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "campaign: %s\n", e.what());
            std::exit(2);
        }
        std::fprintf(stderr,
                     "campaign: wrote manifest '%s' (%zu cells); run "
                     "it with: campaign_tool run --manifest=%s\n",
                     cli.campaignManifest.c_str(),
                     manifest.cells.size(),
                     cli.campaignManifest.c_str());
        std::exit(0);
    }
    if (!cli.campaignResults.empty()) {
        try {
            const CampaignManifest manifest =
                buildCampaignManifest(specs, runner, tool);
            return parseCampaignResults(
                manifest, readFileOrThrow(cli.campaignResults));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "campaign: %s: %s\n",
                         cli.campaignResults.c_str(), e.what());
            std::exit(2);
        }
    }
    return runner.runMany(specs);
}

} // namespace cdir
