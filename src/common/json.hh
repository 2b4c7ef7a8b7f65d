/**
 * @file
 * The one JSON codec. Every JSON document the simulator writes or reads
 * — harness reports, interval-series exports, campaign manifests,
 * shards and results — goes through this module, which alone decides
 * how strings are escaped, how numbers print and where separators go.
 *
 * `JsonOut` appends tokens to a string in a compact layout
 * (`{"a": 1, "b": [2, 3]}`); newline() puts the next member, element or
 * closing bracket on a line of its own. Integers print exactly and
 * doubles with %.17g, which strtod() round-trips to the same bits, so
 * parse(write(x)) == x. parseJson() builds a `JsonValue` tree that
 * remembers where each value starts: every error names a `line:column`,
 * and nesting is capped, so hostile input costs memory in proportion to
 * its size and never overruns the stack.
 *
 * Field lists: a struct serializes through one `fields(io, s)` function
 * (found by argument-dependent lookup) that lists its keys once, in
 * output order. `JsonOut` renders the list as an object's members;
 * `JsonIn` reads the same list back out of a parsed object, converting
 * each integer into its declared type with a range check. `optional`
 * marks keys older documents may lack, `constant` a value the reader
 * must find exactly, and `block` / `rows` only choose the line layout.
 * An enum needs a `lastOf(E)` overload naming its largest enumerator.
 */

#ifndef CDIR_COMMON_JSON_HH
#define CDIR_COMMON_JSON_HH

#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cdir {

/** @p s escaped for a JSON string literal, without the quotes. */
std::string jsonEscape(std::string_view s);

/** A located JSON error: "JSON <line>:<column>: <what>". */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Deepest array/object nesting parseJson() accepts. The deepest
 * document written is 10 levels (campaign results > cells > cell >
 * result > intervals > windows > window > latency > buckets > pair).
 */
constexpr unsigned kMaxJsonDepth = 64;

/** A parsed JSON value and where it starts in its document. */
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

    /** Member @p key of an object, or null if absent. */
    const JsonValue *find(std::string_view key) const;

    /** @throws JsonError located at this value. */
    [[noreturn]] void fail(const std::string &what) const;
};

/**
 * Parse one JSON document. `\u` escapes beyond U+00FF are rejected
 * (the writer emits only control codes that way).
 * @throws JsonError naming where parsing stopped.
 */
JsonValue parseJson(std::string_view text);

/** The contents of file @p path. @throws std::runtime_error naming it. */
std::string readDocumentFile(const std::string &path);

/**
 * Write @p doc to @p path ("-" = stdout) in place, checking the write,
 * flush and close. @throws std::runtime_error naming the path.
 */
void writeDocumentFile(const std::string &path, std::string_view doc);

/** S is T or const T, so one field list serves writer and reader. */
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

template <class T>
concept JsonVector = requires { typename T::value_type; } &&
                     std::same_as<T, std::vector<typename T::value_type>>;

template <class T>
concept JsonPair = requires {
    typename T::first_type;
    typename T::second_type;
} && std::same_as<T, std::pair<typename T::first_type,
                               typename T::second_type>>;

/** Appends JSON tokens and field lists to a string (see file comment). */
class JsonOut
{
  public:
    static constexpr bool reading = false;

    explicit JsonOut(std::string &out) : buf(out) {}

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** Start the next token on a new line indented by @p indent. */
    void newline(unsigned indent) { lineIndent = static_cast<int>(indent); }

    /** An object member's key; its value comes next. */
    void
    key(std::string_view name)
    {
        separate();
        buf += '"' + jsonEscape(name) + "\": ";
        next = Next::Value;
    }

    /** A string, number, vector, pair or field-list value. */
    template <class T>
    void
    value(const T &v)
    {
        if constexpr (std::is_convertible_v<const T &, std::string_view>) {
            separate();
            buf += '"' + jsonEscape(v) + '"';
        } else if constexpr (std::is_floating_point_v<T>) {
            separate();
            number(v);
        } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
            separate();
            buf += std::to_string(static_cast<std::uint64_t>(v));
        } else if constexpr (JsonVector<T>) {
            beginArray();
            for (const auto &item : v)
                value(item);
            endArray();
        } else if constexpr (JsonPair<T>) {
            beginArray();
            value(v.first);
            value(v.second);
            endArray();
        } else {
            beginObject();
            fields(*this, v);
            endObject();
        }
        next = Next::Element;
    }

    template <class T>
    void
    field(const char *name, const T &v)
    {
        key(name);
        value(v);
    }

    template <class T>
    void optional(const char *name, const T &v) { field(name, v); }

    template <class T>
    void constant(const char *name, const T &v) { field(name, v); }

    /** field() on a line of its own. */
    template <class T>
    void
    block(const char *name, const T &v)
    {
        newline(1);
        field(name, v);
    }

    /** An array of @p n objects, one per line, filled by fn(*this, i). */
    template <class Fn>
    void
    rows(const char *name, std::size_t n, Fn fn)
    {
        newline(1);
        key(name);
        beginArray();
        for (std::size_t i = 0; i < n; ++i) {
            newline(2);
            beginObject();
            fn(*this, i);
            endObject();
        }
        newline(1);
        endArray();
    }

  private:
    /** What the next token follows. */
    enum class Next
    {
        First,   //!< an opening bracket (or nothing)
        Value,   //!< a key
        Element, //!< a value: a separator comes first
    };

    /**
     * What goes before a token: a comma after a value (unless
     * @p closing), then the pending line break or else, after a value,
     * a space.
     */
    void
    separate(bool closing = false)
    {
        if (next == Next::Value)
            return;
        const bool after_value = next == Next::Element && !closing;
        if (after_value)
            buf += ',';
        if (lineIndent >= 0) {
            buf += '\n';
            buf.append(static_cast<std::size_t>(lineIndent), ' ');
            lineIndent = -1;
        } else if (after_value) {
            buf += ' ';
        }
    }

    void
    open(char bracket)
    {
        separate();
        buf += bracket;
        next = Next::First;
    }

    void
    close(char bracket)
    {
        separate(true);
        buf += bracket;
        next = Next::Element;
    }

    /** @p v with %.17g. */
    void number(double v);

    std::string &buf;
    Next next = Next::First;
    int lineIndent = -1; //!< pending newline()'s indent, -1 for none
};

/** Reads field lists back out of a parsed JSON object. */
class JsonIn
{
  public:
    static constexpr bool reading = true;

    explicit JsonIn(const JsonValue &value) : obj(value)
    {
        if (obj.kind != JsonValue::Kind::Object)
            obj.fail("expected an object");
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
            m.fail(std::string("\"") + key + "\" is " + show(got) +
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
            m.fail(std::string("\"") + key + "\" holds " +
                   std::to_string(items.size()) + " entries, expected " +
                   std::to_string(n));
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
        member(key).fail(what);
    }

  private:
    const JsonValue &
    member(const char *key) const
    {
        if (const JsonValue *m = obj.find(key))
            return *m;
        obj.fail(std::string("missing \"") + key + "\"");
    }

    static std::string show(const std::string &s) { return '"' + s + '"'; }
    static std::string show(std::uint64_t v) { return std::to_string(v); }

    static const std::vector<JsonValue> &
    array(const JsonValue &v)
    {
        if (v.kind != JsonValue::Kind::Array)
            v.fail("expected an array");
        return v.items;
    }

    /** @p v as an integer in [0, @p max]. */
    static std::uint64_t integer(const JsonValue &v, std::uint64_t max);

    /** @p v as a double, parsed by strtod. */
    static double real(const JsonValue &v);

    template <class T>
    static void
    read(const JsonValue &v, T &out)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            if (v.kind != JsonValue::Kind::String)
                v.fail("expected a string");
            out = v.text;
        } else if constexpr (std::is_floating_point_v<T>) {
            out = static_cast<T>(real(v));
        } else if constexpr (std::is_enum_v<T>) {
            out = static_cast<T>(
                integer(v, static_cast<std::uint64_t>(lastOf(T{}))));
        } else if constexpr (std::is_integral_v<T>) {
            out = static_cast<T>(integer(v, std::numeric_limits<T>::max()));
        } else if constexpr (JsonVector<T>) {
            const std::vector<JsonValue> &items = array(v);
            out.clear();
            out.resize(items.size());
            for (std::size_t i = 0; i < items.size(); ++i)
                read(items[i], out[i]);
        } else if constexpr (JsonPair<T>) {
            const std::vector<JsonValue> &items = array(v);
            if (items.size() != 2)
                v.fail("expected a pair");
            read(items[0], out.first);
            read(items[1], out.second);
        } else {
            JsonIn inner(v);
            fields(inner, out);
        }
    }

    const JsonValue &obj;
};

/** @p v (a field list, vector, string or number) as compact JSON. */
template <class T>
std::string
toJson(const T &v)
{
    std::string out;
    JsonOut(out).value(v);
    return out;
}

} // namespace cdir

#endif // CDIR_COMMON_JSON_HH
