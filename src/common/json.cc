#include "common/json.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cdir {

namespace {

[[noreturn]] void
failAt(std::size_t line, std::size_t column, const std::string &what)
{
    throw JsonError("JSON " + std::to_string(line) + ":" +
                    std::to_string(column) + ": " + what);
}

/** Recursive-descent parser tracking line and column for its errors. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view input)
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
                fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
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

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (ch == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

void
JsonValue::fail(const std::string &what) const
{
    failAt(line, column, what);
}

JsonValue
parseJson(std::string_view text)
{
    return JsonParser(text).parseDocument();
}

std::string
readDocumentFile(const std::string &path)
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

void
writeDocumentFile(const std::string &path, std::string_view doc)
{
    const bool to_stdout = path == "-";
    std::FILE *f = to_stdout ? stdout : std::fopen(path.c_str(), "wb");
    if (!f)
        throw std::runtime_error(path + ": " + std::strerror(errno));
    const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    const bool flushed = std::fflush(f) == 0;
    const bool closed = to_stdout || std::fclose(f) == 0;
    if (!wrote || !flushed || !closed)
        throw std::runtime_error(path + ": write failed");
}

void
JsonOut::number(double v)
{
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", v);
    buf += text;
}

std::uint64_t
JsonIn::integer(const JsonValue &v, std::uint64_t max)
{
    if (v.kind != JsonValue::Kind::Number)
        v.fail("expected an integer");
    const char *begin = v.text.data();
    const char *end = begin + v.text.size();
    std::uint64_t x = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, x);
    if (ec == std::errc::result_out_of_range || (ptr == end && x > max))
        v.fail("integer " + v.text + " out of range (max " +
               std::to_string(max) + ")");
    if (ec != std::errc{} || ptr != end)
        v.fail("bad integer '" + v.text + "'");
    return x;
}

double
JsonIn::real(const JsonValue &v)
{
    if (v.kind != JsonValue::Kind::Number)
        v.fail("expected a number");
    char *end = nullptr;
    const double x = std::strtod(v.text.c_str(), &end);
    if (end != v.text.c_str() + v.text.size())
        v.fail("bad number '" + v.text + "'");
    return x;
}

} // namespace cdir
