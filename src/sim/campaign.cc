#include "sim/campaign.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include <unistd.h>

namespace cdir {

namespace {

// --- formatting --------------------------------------------------------------
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

// --- JSON parsing ------------------------------------------------------------

/**
 * Deepest array/object nesting the parser accepts. The deepest document
 * written is 10 levels (results > cells > cell > result > intervals >
 * windows > window > latency > buckets > pair); the cap keeps the
 * recursive descent off the end of the stack on hostile input.
 */
constexpr unsigned kMaxJsonDepth = 64;

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
    std::size_t line = 0;   //!< 1-based position of the first character
    std::size_t column = 0;
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
};

[[noreturn]] void
failAt(std::size_t line, std::size_t column, const std::string &what)
{
    throw std::runtime_error("campaign JSON " + fmtU64(line) + ":" +
                             fmtU64(column) + ": " + what);
}

[[noreturn]] void
failAt(const JsonValue &v, const std::string &what)
{
    failAt(v.line, v.column, what);
}

class JsonParser
{
  public:
    explicit JsonParser(const std::string &input)
        : p(input.data()), end(input.data() + input.size()), lineStart(p)
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
        failAt(line, static_cast<std::size_t>(p - lineStart) + 1, what);
    }

    void
    skipSpace()
    {
        for (; p != end; ++p) {
            if (*p == '\n') {
                ++line;
                lineStart = p + 1;
            } else if (*p != ' ' && *p != '\t' && *p != '\r') {
                return;
            }
        }
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
        if (peek() != ch)
            return false;
        ++p;
        return true;
    }

    JsonValue
    parseValue()
    {
        const char ch = peek();
        JsonValue v;
        v.line = line;
        v.column = static_cast<std::size_t>(p - lineStart) + 1;
        if (ch == '{' || ch == '[') {
            if (++depth > kMaxJsonDepth)
                fail("nesting deeper than " + fmtU64(kMaxJsonDepth) +
                     " levels");
            if (ch == '{')
                parseObject(v);
            else
                parseArray(v);
            --depth;
        } else if (ch == '"') {
            v.kind = JsonValue::Kind::String;
            parseString(v.text);
        } else if (ch == 't' || ch == 'f') {
            v.kind = JsonValue::Kind::Bool;
            parseLiteral(ch == 't' ? "true" : "false");
        } else if (ch == 'n') {
            parseLiteral("null");
        } else {
            v.kind = JsonValue::Kind::Number;
            const char *start = p;
            while (p != end &&
                   (std::isdigit(static_cast<unsigned char>(*p)) ||
                    *p == '-' || *p == '+' || *p == '.' || *p == 'e' ||
                    *p == 'E'))
                ++p;
            if (p == start)
                fail(std::string("unexpected '") + ch + "'");
            v.text.assign(start, p);
        }
        return v;
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

    void
    parseString(std::string &out)
    {
        expect('"');
        while (true) {
            if (p == end)
                fail("unterminated string");
            // Raw control characters are invalid JSON (the writer
            // escapes them all), and keep line numbers honest.
            if (static_cast<unsigned char>(*p) < 0x20)
                fail("control character in string");
            const char ch = *p++;
            if (ch == '"')
                return;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (p == end)
                fail("unterminated escape");
            const char esc = *p++;
            static const char kEscaped[] = "\"\\/bfnrt";
            static const char kDecoded[] = "\"\\/\b\f\n\r\t";
            if (const char *at = std::strchr(kEscaped, esc);
                at != nullptr && esc != '\0') {
                out += kDecoded[at - kEscaped];
                continue;
            }
            if (esc != 'u')
                fail("unknown escape");
            unsigned code = 0;
            const char *hex_end = p + std::min<std::ptrdiff_t>(end - p, 4);
            if (std::from_chars(p, hex_end, code, 16).ptr != p + 4)
                fail("bad \\u escape");
            p += 4;
            // The writer only emits \u00xx control codes; reject
            // anything wider rather than mis-decoding it.
            if (code > 0xff)
                fail("unsupported \\u escape beyond U+00FF");
            out += static_cast<char>(code);
        }
    }

    void
    parseArray(JsonValue &v)
    {
        expect('[');
        v.kind = JsonValue::Kind::Array;
        if (consume(']'))
            return;
        while (true) {
            v.items.push_back(parseValue());
            if (consume(']'))
                return;
            expect(',');
        }
    }

    void
    parseObject(JsonValue &v)
    {
        expect('{');
        v.kind = JsonValue::Kind::Object;
        if (consume('}'))
            return;
        while (true) {
            if (peek() != '"')
                fail("expected a string key");
            std::string key;
            parseString(key);
            expect(':');
            v.members.emplace_back(std::move(key), parseValue());
            if (consume('}'))
                return;
            expect(',');
        }
    }

    const char *p;
    const char *end;
    const char *lineStart;
    std::size_t line = 1;
    unsigned depth = 0;
};

// --- field lists -------------------------------------------------------------
//
// Each serialized struct has one `fields(io, s)` template that lists its
// keys once, in output order. JsonOut renders the list as an object's
// members; JsonIn reads the same list back out of a parsed object,
// converting each integer into its declared type with a range check.
// `optional` marks keys older documents may lack, `constant` a value the
// reader must find exactly (document headers, cell ids), and `block` /
// `rows` only choose the document-level line layout.

/** S is T or const T, so one field list serves writer and reader. */
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

template <class T>
concept Vector = requires { typename T::value_type; } &&
                 std::same_as<T, std::vector<typename T::value_type>>;

template <class T>
concept Pair = requires {
    typename T::first_type;
    typename T::second_type;
} && std::same_as<T, std::pair<typename T::first_type,
                               typename T::second_type>>;

/** Largest enumerator of each serialized enum (the reader's bound). */
constexpr CmpConfigKind lastOf(CmpConfigKind) { return kLastCmpConfigKind; }
constexpr SharerFormat lastOf(SharerFormat) { return kLastSharerFormat; }
constexpr HashKind lastOf(HashKind) { return kLastHashKind; }

/** Renders field lists as JSON object members (see above). */
class JsonOut
{
  public:
    static constexpr bool reading = false;

    explicit JsonOut(std::string &out) : buf(out) { buf += '{'; }

    void close() { buf += '}'; }

    template <class T>
    void
    field(const char *key, const T &v)
    {
        member(key, ", ");
        write(v);
    }

    template <class T>
    void optional(const char *key, const T &v) { field(key, v); }

    template <class T>
    void constant(const char *key, const T &v) { field(key, v); }

    /** field() on a line of its own. */
    template <class T>
    void
    block(const char *key, const T &v)
    {
        member(key, ",\n ");
        write(v);
    }

    /** An array of @p n objects, one per line, filled by fn(row, i). */
    template <class Fn>
    void
    rows(const char *key, std::size_t n, Fn fn)
    {
        member(key, ",\n ");
        buf += '[';
        for (std::size_t i = 0; i < n; ++i) {
            buf += i == 0 ? "\n  " : ",\n  ";
            JsonOut row(buf);
            fn(row, i);
            row.close();
        }
        buf += "\n ]";
    }

  private:
    void
    member(const char *key, const char *separator)
    {
        if (!first)
            buf += separator;
        first = false;
        buf += '"';
        buf += key;
        buf += "\": ";
    }

    template <class T>
    void
    write(const T &v)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            buf += '"';
            buf += jsonEscape(v);
            buf += '"';
        } else if constexpr (std::is_floating_point_v<T>) {
            buf += fmtDouble(v);
        } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
            buf += fmtU64(static_cast<std::uint64_t>(v));
        } else if constexpr (Vector<T>) {
            buf += '[';
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (i != 0)
                    buf += ", ";
                write(v[i]);
            }
            buf += ']';
        } else if constexpr (Pair<T>) {
            buf += '[';
            write(v.first);
            buf += ", ";
            write(v.second);
            buf += ']';
        } else {
            JsonOut inner(buf);
            fields(inner, v);
            inner.close();
        }
    }

    std::string &buf;
    bool first = true;
};

/** Reads field lists back out of a parsed JSON object (see above). */
class JsonIn
{
  public:
    static constexpr bool reading = true;

    explicit JsonIn(const JsonValue &value) : obj(value)
    {
        if (obj.kind != JsonValue::Kind::Object)
            failAt(obj, "expected an object");
    }

    template <class T>
    void field(const char *key, T &v) { read(member(key), v); }

    template <class T>
    void
    optional(const char *key, T &v)
    {
        if (const JsonValue *m = obj.find(key))
            read(*m, v);
    }

    template <class T>
    void
    constant(const char *key, const T &want)
    {
        const JsonValue &m = member(key);
        T got{};
        read(m, got);
        if (got != want)
            failAt(m, std::string("\"") + key + "\" is " + show(got) +
                          ", expected " + show(want));
    }

    template <class T>
    void block(const char *key, T &v) { field(key, v); }

    /** Read an array of exactly @p n objects through fn(row, i). */
    template <class Fn>
    void
    rows(const char *key, std::size_t n, Fn fn)
    {
        const JsonValue &m = member(key);
        const std::vector<JsonValue> &items = array(m);
        if (items.size() != n)
            failAt(m, std::string("\"") + key + "\" holds " +
                          fmtU64(items.size()) + " entries, expected " +
                          fmtU64(n));
        for (std::size_t i = 0; i < n; ++i) {
            JsonIn row(items[i]);
            fn(row, i);
        }
    }

    /** Length of array member @p key. */
    std::size_t
    size(const char *key) const
    {
        return array(member(key)).size();
    }

    /** Fail with @p what at member @p key's value. */
    [[noreturn]] void
    fail(const char *key, const std::string &what) const
    {
        failAt(member(key), what);
    }

  private:
    const JsonValue &
    member(const char *key) const
    {
        if (const JsonValue *m = obj.find(key))
            return *m;
        failAt(obj, std::string("missing \"") + key + "\"");
    }

    static std::string show(const std::string &s) { return '"' + s + '"'; }
    static std::string show(std::uint64_t v) { return fmtU64(v); }

    static const std::vector<JsonValue> &
    array(const JsonValue &v)
    {
        if (v.kind != JsonValue::Kind::Array)
            failAt(v, "expected an array");
        return v.items;
    }

    /** @p v as an integer in [0, @p max]. */
    static std::uint64_t
    integer(const JsonValue &v, std::uint64_t max)
    {
        if (v.kind != JsonValue::Kind::Number)
            failAt(v, "expected an integer");
        const char *begin = v.text.data();
        const char *end = begin + v.text.size();
        std::uint64_t x = 0;
        const auto [ptr, ec] = std::from_chars(begin, end, x);
        if (ec == std::errc::result_out_of_range || (ptr == end && x > max))
            failAt(v, "integer " + v.text + " out of range (max " +
                          fmtU64(max) + ")");
        if (ec != std::errc{} || ptr != end)
            failAt(v, "bad integer '" + v.text + "'");
        return x;
    }

    template <class T>
    static void
    read(const JsonValue &v, T &out)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            if (v.kind != JsonValue::Kind::String)
                failAt(v, "expected a string");
            out = v.text;
        } else if constexpr (std::is_floating_point_v<T>) {
            if (v.kind != JsonValue::Kind::Number)
                failAt(v, "expected a number");
            char *end = nullptr;
            out = std::strtod(v.text.c_str(), &end);
            if (end != v.text.c_str() + v.text.size())
                failAt(v, "bad number '" + v.text + "'");
        } else if constexpr (std::is_enum_v<T>) {
            out = static_cast<T>(
                integer(v, static_cast<std::uint64_t>(lastOf(T{}))));
        } else if constexpr (std::is_integral_v<T>) {
            out = static_cast<T>(
                integer(v, std::numeric_limits<T>::max()));
        } else if constexpr (Vector<T>) {
            const std::vector<JsonValue> &items = array(v);
            out.clear();
            out.resize(items.size());
            for (std::size_t i = 0; i < items.size(); ++i)
                read(items[i], out[i]);
        } else if constexpr (Pair<T>) {
            const std::vector<JsonValue> &items = array(v);
            if (items.size() != 2)
                failAt(v, "expected a pair");
            read(items[0], out.first);
            read(items[1], out.second);
        } else {
            JsonIn inner(v);
            fields(inner, out);
        }
    }

    const JsonValue &obj;
};

/** Serialize @p v's field list as one JSON object. */
template <class T>
std::string
toJson(const T &v)
{
    std::string out;
    JsonOut w(out);
    fields(w, v);
    w.close();
    return out;
}

/** Parse @p json and read a T's field list out of it. */
template <class T>
T
fromJson(const std::string &json)
{
    const JsonValue doc = JsonParser(json).parseDocument();
    T v;
    JsonIn in(doc);
    fields(in, v);
    return v;
}

// --- the field lists ---------------------------------------------------------

template <class IO, Is<RunningMean> S>
void
fields(IO &io, S &m)
{
    std::uint64_t count = m.count();
    double sum = m.sum();
    io.field("count", count);
    io.field("sum", sum);
    if constexpr (IO::reading)
        m.restore(count, sum);
}

/** A histogram's serialized form: its non-zero (bucket, count) pairs. */
using Buckets = std::vector<std::pair<std::size_t, std::uint64_t>>;

/**
 * The "buckets" member shared by both histogram types: the writer
 * collects the non-zero counts of buckets [0, @p size) through @p at;
 * the reader rejects a bucket index outside that range.
 */
template <class IO, class At>
void
sparseBuckets(IO &io, Buckets &buckets, std::size_t size, At at)
{
    if constexpr (!IO::reading)
        for (std::size_t b = 0; b < size; ++b)
            if (at(b) != 0)
                buckets.emplace_back(b, at(b));
    io.field("buckets", buckets);
    if constexpr (IO::reading)
        for (const auto &bucket : buckets)
            if (bucket.first >= size)
                io.fail("buckets", "bucket " + fmtU64(bucket.first) +
                                       " out of range (histogram has " +
                                       fmtU64(size) + " buckets)");
}

template <class IO, Is<Histogram> S>
void
fields(IO &io, S &h)
{
    // Only the attempt histogram is serialized, and its geometry is
    // fixed: checking it keeps a hostile "max" from sizing the buckets.
    std::size_t max = h.maxValue();
    io.field("max", max);
    if constexpr (IO::reading)
        if (max != kAttemptHistogramMax)
            io.fail("max", "histogram max " + fmtU64(max) + " is not " +
                               fmtU64(kAttemptHistogramMax));
    Buckets buckets;
    sparseBuckets(io, buckets, max + 1,
                  [&](std::size_t v) { return h.at(v); });
    if constexpr (IO::reading) {
        h = Histogram(max);
        for (const auto &[v, count] : buckets)
            h.addCount(v, count);
    }
}

template <class IO, Is<LatencyHistogram> S>
void
fields(IO &io, S &h)
{
    std::uint64_t sum = h.totalCycles();
    io.field("sum", sum);
    Buckets buckets;
    sparseBuckets(io, buckets, LatencyHistogram::kBuckets,
                  [&](std::size_t b) { return h.bucketAt(b); });
    if constexpr (IO::reading)
        h.restore(sum, buckets);
}

template <class IO, Is<DirectoryStats> S>
void
fields(IO &io, S &s)
{
    io.field("lookups", s.lookups);
    io.field("hits", s.hits);
    io.field("insertions", s.insertions);
    io.field("sharer_adds", s.sharerAdds);
    io.field("write_upgrades", s.writeUpgrades);
    io.field("sharer_removals", s.sharerRemovals);
    io.field("entry_frees", s.entryFrees);
    io.field("forced_evictions", s.forcedEvictions);
    io.field("forced_block_invalidations", s.forcedBlockInvalidations);
    io.field("insert_failures", s.insertFailures);
    io.field("insertion_attempts", s.insertionAttempts);
    io.field("attempt_histogram", s.attemptHistogram);
}

template <class IO, Is<CmpStats> S>
void
fields(IO &io, S &s)
{
    io.field("accesses", s.accesses);
    io.field("cache_hits", s.cacheHits);
    io.field("cache_misses", s.cacheMisses);
    io.field("write_upgrades", s.writeUpgrades);
    io.field("cache_evictions", s.cacheEvictions);
    io.field("sharing_invalidations", s.sharingInvalidations);
    io.field("forced_invalidations", s.forcedInvalidations);
    io.field("directory_occupancy", s.directoryOccupancy);
    io.field("latency", s.latency);
}

template <class IO, Is<IntervalRecord> S>
void
fields(IO &io, S &r)
{
    io.field("accesses", r.accesses);
    io.field("cache_misses", r.cacheMisses);
    io.field("insertions", r.insertions);
    io.field("attempt_sum", r.attemptSum);
    io.field("attempt_count", r.insertionAttemptCount);
    io.field("forced_evictions", r.forcedEvictions);
    io.field("sharing_invalidations", r.sharingInvalidations);
    io.field("forced_invalidations", r.forcedInvalidations);
    io.field("occupied", r.occupiedEntries);
    io.field("capacity", r.capacityEntries);
    io.field("latency", r.latency);
}

template <class IO, Is<IntervalStats> S>
void
fields(IO &io, S &s)
{
    io.field("interval", s.intervalAccesses);
    io.field("windows", s.windows);
}

template <class IO, Is<DirectoryParams> S>
void
fields(IO &io, S &d)
{
    io.field("organization", d.organization);
    io.field("num_caches", d.numCaches);
    io.field("ways", d.ways);
    io.field("sets", d.sets);
    io.field("format", d.format);
    io.field("hash", d.hash);
    io.field("max_attempts", d.maxAttempts);
    io.field("bucket_slots", d.bucketSlots);
    io.field("stash_entries", d.stashEntries);
    io.field("hash_seed", d.hashSeed);
    io.field("tracked_cache_assoc", d.trackedCacheAssoc);
    io.field("tagless_bucket_bits", d.taglessBucketBits);
}

template <class IO, Is<CmpConfig> S>
void
fields(IO &io, S &c)
{
    io.field("kind", c.kind);
    io.field("num_cores", c.numCores);
    io.field("num_slices", c.numSlices);
    io.field("cache_sets", c.privateCache.numSets);
    io.field("cache_assoc", c.privateCache.assoc);
    io.field("batch_window", c.batchWindow);
    io.field("dir", c.directory);
}

template <class IO, Is<WorkloadParams> S>
void
fields(IO &io, S &p)
{
    io.field("name", p.name);
    io.field("num_cores", p.numCores);
    io.field("trace_path", p.tracePath);
    io.field("scenario_spec", p.scenarioSpec);
    io.field("code_blocks", p.codeBlocks);
    io.field("shared_blocks", p.sharedBlocks);
    io.field("private_blocks_per_core", p.privateBlocksPerCore);
    io.field("instruction_fraction", p.instructionFraction);
    io.field("shared_data_fraction", p.sharedDataFraction);
    io.field("write_fraction", p.writeFraction);
    io.field("code_theta", p.codeTheta);
    io.field("shared_theta", p.sharedTheta);
    io.field("private_theta", p.privateTheta);
    io.field("seed", p.seed);
}

template <class IO, Is<ExperimentOptions> S>
void
fields(IO &io, S &o)
{
    io.field("warmup", o.warmupAccesses);
    io.field("measure", o.measureAccesses);
    io.field("occupancy_sample_every", o.occupancySampleEvery);
    io.field("interval_accesses", o.intervalAccesses);
    io.field("cost_model", o.costModel);
    io.field("probe_every", o.probeEvery);
}

template <class IO, Is<ExperimentResult> S>
void
fields(IO &io, S &r)
{
    io.field("workload", r.workload);
    io.field("organization", r.organization);
    io.field("avg_insertion_attempts", r.avgInsertionAttempts);
    io.field("forced_invalidation_rate", r.forcedInvalidationRate);
    io.field("avg_occupancy", r.avgOccupancy);
    io.field("attempt_histogram", r.attemptHistogram);
    io.field("directory_capacity", r.directoryCapacity);
    io.field("directory", r.directory);
    io.field("system", r.system);
    io.field("intervals", r.intervals);
    io.field("cost_model", r.costModel);
    io.field("latency_p50", r.latencyP50);
    io.field("latency_p99", r.latencyP99);
    io.field("latency_p999", r.latencyP999);
    // estimatedBytes is deterministic for a given access history, so it
    // checkpoints safely. peakRssBytes / wallSeconds are environmental
    // (host- and concurrency-dependent) and are deliberately NOT
    // serialized: a campaign-loaded cell reports 0 for them. The keys
    // below are optional for shards written before footprint
    // accounting and the feedback subsystem existed.
    io.optional("estimated_bytes", r.estimatedBytes);
    // Feedback witness and SLO-ramp knee: deterministic functions of
    // the access history, safe to checkpoint and merge.
    io.optional("feedback_events", r.feedbackEvents);
    io.optional("feedback_digest", r.feedbackDigest);
    io.optional("ramp_final_level", r.rampFinalLevel);
    io.optional("ramp_knee_level", r.rampKneeLevel);
    io.optional("ramp_knee_metric", r.rampKneeMetric);
    io.optional("ramp_cross_metric", r.rampCrossMetric);
}

template <class IO, Is<SweepCell> S>
void
fields(IO &io, S &cell)
{
    // The id is derived from the rest of the cell: written for readers,
    // and checked against the content on the way back in.
    std::string id;
    if constexpr (!IO::reading)
        id = campaignCellId(cell);
    io.field("id", id);
    io.field("spec", cell.specIndex);
    io.field("config_index", cell.configIndex);
    io.field("workload_index", cell.workloadIndex);
    io.field("options_index", cell.optionsIndex);
    io.field("config_label", cell.configLabel);
    io.field("workload_label", cell.workloadLabel);
    io.field("options_label", cell.optionsLabel);
    io.field("config", cell.config);
    io.field("workload", cell.workload);
    io.field("options", cell.options);
    if constexpr (IO::reading)
        if (const std::string expected = campaignCellId(cell); id != expected)
            io.fail("id", "cell id '" + id + "' does not match its content "
                          "(expected " + expected +
                          ") — the manifest was edited or corrupted");
}

/** The `format` / `version` pair every campaign document opens with. */
template <class IO>
void
header(IO &io, const char *format)
{
    io.constant("format", std::string(format));
    io.constant("version", std::uint64_t{CampaignManifest::kVersion});
}

template <class IO, Is<CampaignManifest> S>
void
fields(IO &io, S &m)
{
    header(io, "cdir-campaign-manifest");
    io.field("tool", m.tool);
    io.field("spec_count", m.specCount);
    if constexpr (IO::reading)
        m.cells.resize(io.size("cells"));
    io.rows("cells", m.cells.size(), [&](auto &row, std::size_t i) {
        fields(row, m.cells[i]);
        if constexpr (IO::reading)
            if (m.cells[i].specIndex >= m.specCount)
                row.fail("spec", "cell names spec " +
                                     fmtU64(m.cells[i].specIndex) +
                                     " but spec_count is " +
                                     fmtU64(m.specCount));
    });
}

/** A shard: the header, its cell's id, and the cell's result. */
template <class IO, Is<ExperimentResult> R>
void
shardDocument(IO &io, const std::string &cell_id, R &result)
{
    header(io, "cdir-campaign-shard");
    io.constant("cell", cell_id);
    io.block("result", result);
}

/**
 * A results document: the header, the grid it belongs to, and one
 * (cell id, result(i)) row per manifest cell, in cell order.
 */
template <class IO, class ResultAt>
void
resultsDocument(IO &io, const CampaignManifest &manifest, ResultAt result)
{
    header(io, "cdir-campaign-results");
    io.constant("tool", manifest.tool);
    io.constant("spec_count", manifest.specCount);
    io.rows("cells", manifest.cells.size(),
            [&](auto &row, std::size_t i) {
                row.constant("id", campaignCellId(manifest.cells[i]));
                row.field("result", result(i));
            });
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

std::uint64_t
fnv1a(std::uint64_t hash, const std::string &data)
{
    for (const char ch : data) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

bool
shardExists(const std::string &shard_dir, const std::string &cell_id)
{
    std::error_code ec;
    return std::filesystem::exists(campaignShardPath(shard_dir, cell_id),
                                   ec);
}

} // namespace

// --- public API --------------------------------------------------------------

std::string
campaignCellId(const SweepCell &cell)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    hash = fnv1a(hash, fmtU64(cell.specIndex));
    hash = fnv1a(hash, cell.label());
    hash = fnv1a(hash, toJson(cell.config));
    hash = fnv1a(hash, toJson(cell.workload));
    hash = fnv1a(hash, toJson(cell.options));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

CampaignManifest
buildCampaignManifest(std::span<const SweepSpec> specs,
                      const SweepRunner &runner, const std::string &tool)
{
    return {tool, specs.size(), runner.cells(specs)};
}

std::string
campaignManifestToJson(const CampaignManifest &manifest)
{
    return toJson(manifest) + "\n";
}

CampaignManifest
parseCampaignManifest(const std::string &json)
{
    return fromJson<CampaignManifest>(json);
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
    std::string doc;
    JsonOut w(doc);
    shardDocument(w, cell_id, result);
    w.close();
    atomicWriteFile(campaignShardPath(shard_dir, cell_id), doc + "\n");
}

bool
readCampaignShard(const std::string &shard_dir,
                  const std::string &cell_id, ExperimentResult &out)
{
    if (!shardExists(shard_dir, cell_id))
        return false;
    const std::string path = campaignShardPath(shard_dir, cell_id);
    try {
        const JsonValue doc =
            JsonParser(readFileOrThrow(path)).parseDocument();
        ExperimentResult result;
        JsonIn in(doc);
        shardDocument(in, cell_id, result);
        out = std::move(result);
    } catch (const std::exception &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
    return true;
}

std::string
experimentResultToJson(const ExperimentResult &result)
{
    return toJson(result);
}

ExperimentResult
parseExperimentResult(const std::string &json)
{
    return fromJson<ExperimentResult>(json);
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
    std::vector<std::string> ids; //!< of the pending cells
    for (std::size_t i = begin; i < end; ++i) {
        std::string id = campaignCellId(manifest.cells[i]);
        if (shardExists(shard_dir, id)) {
            ++report.skipped;
        } else {
            pending.push_back(i);
            ids.push_back(std::move(id));
        }
    }

    // A worker killed mid-write leaves `cell-<id>.json.tmp.<pid>`
    // behind. Sweep those for *this run's pending cells only*: a cell
    // another live worker owns is not pending here (ranges are
    // disjoint), and its in-flight tmp file must survive.
    {
        std::vector<std::string> stale_prefixes;
        stale_prefixes.reserve(ids.size());
        for (const std::string &id : ids)
            stale_prefixes.push_back("cell-" + id + ".json.tmp.");
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
    std::vector<std::uint64_t> measured(pending.size());
    parallelFor(jobs, pending.size(), [&](std::size_t p) {
        const SweepCell &cell = manifest.cells[pending[p]];
        try {
            const ExperimentResult result = runExperiment(
                cell.config, cell.workload, cell.options);
            writeCampaignShard(shard_dir, ids[p], result);
            measured[p] = result.system.accesses;
        } catch (const std::exception &e) {
            failures[p] = e.what();
        }
    });
    for (std::size_t p = 0; p < pending.size(); ++p) {
        const SweepCell &cell = manifest.cells[pending[p]];
        if (failures[p].empty()) {
            ++report.ran;
            noteExhaustedCell(cell, measured[p]);
            continue;
        }
        ++report.failed;
        std::fprintf(stderr, "campaign cell '%s' (%s) failed: %s\n",
                     cell.label().c_str(), ids[p].c_str(),
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
        if (shardExists(shard_dir, campaignCellId(manifest.cells[i])))
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
            const SweepCell &cell = manifest.cells[status.missing[i]];
            what += "\n  [" + fmtU64(status.missing[i]) + "] " +
                    cell.label() + " (" + campaignCellId(cell) + ")";
        }
        if (shown < status.missing.size())
            what += "\n  ... and " +
                    fmtU64(status.missing.size() - shown) + " more";
        throw std::runtime_error(what);
    }

    std::vector<std::vector<SweepRecord>> groups(manifest.specCount);
    for (const SweepCell &cell : manifest.cells) {
        const std::string id = campaignCellId(cell);
        ExperimentResult result;
        if (!readCampaignShard(shard_dir, id, result))
            throw std::runtime_error("campaign shard for cell " + id +
                                     " vanished during merge");
        groups[cell.specIndex].push_back(
            sweepRecord(cell, std::move(result)));
    }
    return groups;
}

std::vector<std::vector<SweepRecord>>
parseCampaignResults(const CampaignManifest &manifest,
                     const std::string &json)
{
    const JsonValue doc = JsonParser(json).parseDocument();
    std::vector<ExperimentResult> results(manifest.cells.size());
    JsonIn in(doc);
    resultsDocument(in, manifest, [&](std::size_t i) -> ExperimentResult & {
        return results[i];
    });
    std::vector<std::vector<SweepRecord>> groups(manifest.specCount);
    for (std::size_t i = 0; i < results.size(); ++i)
        groups[manifest.cells[i].specIndex].push_back(
            sweepRecord(manifest.cells[i], std::move(results[i])));
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
        else
            throw std::runtime_error(
                "campaign results incomplete: no result for cell " +
                campaignCellId(manifest.cells[i]) + " (" +
                manifest.cells[i].label() + ")");
    }

    std::string out;
    JsonOut w(out);
    resultsDocument(w, manifest,
                    [&](std::size_t i) -> const ExperimentResult & {
                        return ordered[i]->result;
                    });
    w.close();
    return out + "\n";
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
