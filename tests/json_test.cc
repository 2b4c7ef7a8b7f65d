/**
 * @file
 * JSON codec coverage (common/json.hh) and the documents written
 * through it outside the campaign format:
 *
 *  - the writer's compact layout, newline() breaks and exact numbers,
 *    and the parser's decoding of everything the writer escapes;
 *  - a Reporter `--format=json` document and an interval-series export
 *    (timed and untimed windows, a series with no stats, an empty
 *    export) each parse back to the expected keys and values, and
 *    their bytes are pinned;
 *  - writeDocumentFile writes a document in place and throws on a
 *    failed open or write (`--series-json=/dev/full` once exited 0).
 *
 * The campaign documents, the parser's located errors and its hostile
 * input bounds are covered by campaign_test.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.hh"
#include "sim/interval_export.hh"
#include "sim/sweep.hh"

namespace cdir {
namespace {

/** Member @p key of object @p v; fails the test if absent. */
const JsonValue &
at(const JsonValue &v, const char *key)
{
    const JsonValue *m = v.find(key);
    EXPECT_NE(m, nullptr) << key;
    static const JsonValue missing;
    return m != nullptr ? *m : missing;
}

/** Keys of object @p v, in document order. */
std::vector<std::string>
keysOf(const JsonValue &v)
{
    std::vector<std::string> keys;
    for (const auto &member : v.members)
        keys.push_back(member.first);
    return keys;
}

double
number(const JsonValue &v)
{
    EXPECT_EQ(v.kind, JsonValue::Kind::Number) << v.text;
    return std::strtod(v.text.c_str(), nullptr);
}

// --- codec -------------------------------------------------------------------

TEST(JsonCodec, WriterLayoutAndExactNumbers)
{
    std::string doc;
    JsonOut out(doc);
    out.beginObject();
    out.field("n", std::uint64_t{18446744073709551615ull});
    out.field("x", 0.1);
    out.field("list", std::vector<std::string>{"a", "b"});
    out.newline(1);
    out.key("rows");
    out.beginArray();
    for (int i = 0; i < 2; ++i) {
        out.newline(2);
        out.value(std::pair<int, double>{i, 0.5});
    }
    out.newline(1);
    out.endArray();
    out.field("empty", std::vector<int>{});
    out.endObject();
    EXPECT_EQ(doc, "{\"n\": 18446744073709551615, \"x\": 0.10000000000000001, "
                   "\"list\": [\"a\", \"b\"],\n"
                   " \"rows\": [\n"
                   "  [0, 0.5],\n"
                   "  [1, 0.5]\n"
                   " ], \"empty\": []}");

    const JsonValue v = parseJson(doc);
    EXPECT_EQ(keysOf(v),
              (std::vector<std::string>{"n", "x", "list", "rows", "empty"}));
    EXPECT_EQ(at(v, "n").text, "18446744073709551615");
    EXPECT_EQ(number(at(v, "x")), 0.1); // %.17g round-trips exactly
    EXPECT_EQ(at(v, "rows").items.size(), 2u);
    EXPECT_EQ(at(v, "rows").items[1].line, 4u);
    EXPECT_EQ(at(v, "rows").items[1].column, 3u);
}

TEST(JsonCodec, EscapedStringsDecodeToTheOriginal)
{
    std::string all;
    for (int ch = 1; ch < 0x80; ++ch)
        all += static_cast<char>(ch);
    all += "\xc3\xa9"; // UTF-8 passes through unescaped
    EXPECT_EQ(jsonEscape("q\" b\\ n\nt\t"), "q\\\" b\\\\ n\\nt\\u0009");
    const JsonValue v = parseJson(toJson(all));
    ASSERT_EQ(v.kind, JsonValue::Kind::String);
    EXPECT_EQ(v.text, all);
    // What other writers emit decodes too.
    EXPECT_EQ(parseJson("\"\\t\\r\\b\\f\\/\"").text, "\t\r\b\f/");
}

// --- Reporter documents ------------------------------------------------------

/** Everything @p fill emits through a JSON Reporter. */
template <class Fill>
std::string
reportJson(Fill fill)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    {
        Reporter reporter(ReportFormat::Json, f);
        fill(reporter);
    }
    std::fseek(f, 0, SEEK_END);
    std::string out(static_cast<std::size_t>(std::ftell(f)), '\0');
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
    return out;
}

TEST(JsonDocuments, ReporterParsesBackAndIsPinned)
{
    const std::string text = "q\" b\\s n\nt\tend";
    const std::string doc = reportJson([&](Reporter &r) {
        ReportTable t("mixed \"cells\"", {"name", "value"});
        t.addRow({cellText(text), cellNum(0.1)});
        t.addRow({cellText("plain"), cellNum(1e6, "%.0f")});
        r.table(t);
        r.note("done \"x\"");
        r.table(ReportTable("empty", {"a"}));
    });
    EXPECT_EQ(doc,
              "[\n"
              "{\"title\": \"mixed \\\"cells\\\"\", \"columns\": [\"name\", "
              "\"value\"], \"rows\": [\n"
              "  [\"q\\\" b\\\\s n\\nt\\u0009end\", 0.10000000000000001],\n"
              "  [\"plain\", 1000000]]},\n"
              "{\"note\": \"done \\\"x\\\"\"},\n"
              "{\"title\": \"empty\", \"columns\": [\"a\"], \"rows\": []}\n"
              "]\n");

    const JsonValue v = parseJson(doc);
    ASSERT_EQ(v.kind, JsonValue::Kind::Array);
    ASSERT_EQ(v.items.size(), 3u);
    const JsonValue &table = v.items[0];
    EXPECT_EQ(keysOf(table),
              (std::vector<std::string>{"title", "columns", "rows"}));
    EXPECT_EQ(at(table, "title").text, "mixed \"cells\"");
    ASSERT_EQ(at(table, "columns").items.size(), 2u);
    EXPECT_EQ(at(table, "columns").items[1].text, "value");
    const std::vector<JsonValue> &rows = at(table, "rows").items;
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].items.size(), 2u);
    EXPECT_EQ(rows[0].items[0].kind, JsonValue::Kind::String);
    EXPECT_EQ(rows[0].items[0].text, text);
    EXPECT_EQ(number(rows[0].items[1]), 0.1);
    EXPECT_EQ(number(rows[1].items[1]), 1e6);
    EXPECT_EQ(keysOf(v.items[1]), std::vector<std::string>{"note"});
    EXPECT_EQ(at(v.items[1], "note").text, "done \"x\"");
    EXPECT_TRUE(at(v.items[2], "rows").items.empty());

    const std::string empty = reportJson([](Reporter &) {});
    EXPECT_EQ(empty, "[]\n");
    EXPECT_TRUE(parseJson(empty).items.empty());
}

// --- interval-series documents -----------------------------------------------

/** A timed series (latency samples in window 0 only) and an untimed one. */
struct SeriesFixture
{
    IntervalStats timed;
    IntervalStats untimed;

    SeriesFixture()
    {
        timed.intervalAccesses = 50;
        timed.windows.resize(2);
        timed.windows[0] = {50, 7, 4, 6, 3, 1, 2, 1, 10, 40, {}};
        for (const std::uint64_t cycles : {12, 30, 30})
            timed.windows[0].latency.add(cycles);
        timed.windows[1] = {50, 2, 0, 0, 0, 0, 1, 0, 9, 40, {}};
        untimed.intervalAccesses = 50;
        untimed.windows.push_back({50, 3, 3, 3, 3, 0, 0, 0, 3, 8, {}});
    }

    std::vector<IntervalSeriesGroup>
    groups() const
    {
        return {{"grid \"a\"",
                 100,
                 {{"timed", &timed}, {"untimed", &untimed}, {"none", nullptr}}},
                {"no series", 0, {}}};
    }
};

TEST(JsonDocuments, IntervalSeriesParsesBackAndIsPinned)
{
    const SeriesFixture fixture;
    const std::string doc = intervalSeriesToJson(fixture.groups());
    EXPECT_EQ(
        doc,
        "[\n"
        "{\"name\": \"grid \\\"a\\\"\", \"firstAccess\": 100, "
        "\"intervalAccesses\": 50, \"series\": [\n"
        " {\"label\": \"timed\", \"windows\": [\n"
        "  {\"access\": 100, \"accesses\": 50, \"cacheMisses\": 7, "
        "\"insertions\": 4, \"forcedEvictions\": 1, "
        "\"sharingInvalidations\": 2, \"forcedInvalidations\": 1, "
        "\"occupiedEntries\": 10, \"capacityEntries\": 40, \"occupancy\": "
        "0.25, \"invalidationRate\": 0.25, \"avgInsertionAttempts\": 2, "
        "\"latencySamples\": 3, \"latencyMean\": 24, \"latencyP50\": 30, "
        "\"latencyP99\": 30, \"latencyP999\": 30},\n"
        "  {\"access\": 150, \"accesses\": 50, \"cacheMisses\": 2, "
        "\"insertions\": 0, \"forcedEvictions\": 0, "
        "\"sharingInvalidations\": 1, \"forcedInvalidations\": 0, "
        "\"occupiedEntries\": 9, \"capacityEntries\": 40, \"occupancy\": "
        "0.22500000000000001, \"invalidationRate\": 0, "
        "\"avgInsertionAttempts\": 0}]},\n"
        " {\"label\": \"untimed\", \"windows\": [\n"
        "  {\"access\": 100, \"accesses\": 50, \"cacheMisses\": 3, "
        "\"insertions\": 3, \"forcedEvictions\": 0, "
        "\"sharingInvalidations\": 0, \"forcedInvalidations\": 0, "
        "\"occupiedEntries\": 3, \"capacityEntries\": 8, \"occupancy\": "
        "0.375, \"invalidationRate\": 0, \"avgInsertionAttempts\": 1}]},\n"
        " {\"label\": \"none\", \"windows\": []}]},\n"
        "{\"name\": \"no series\", \"firstAccess\": 0, "
        "\"intervalAccesses\": 0, \"series\": []}\n"
        "]\n");

    const JsonValue v = parseJson(doc);
    ASSERT_EQ(v.items.size(), 2u);
    const JsonValue &group = v.items[0];
    EXPECT_EQ(keysOf(group),
              (std::vector<std::string>{"name", "firstAccess",
                                        "intervalAccesses", "series"}));
    EXPECT_EQ(at(group, "name").text, "grid \"a\"");
    EXPECT_EQ(number(at(group, "intervalAccesses")), 50);
    const std::vector<JsonValue> &series = at(group, "series").items;
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(at(series[0], "label").text, "timed");
    const std::vector<JsonValue> &timed = at(series[0], "windows").items;
    ASSERT_EQ(timed.size(), 2u);
    const std::vector<std::string> untimed_keys = {
        "access",          "accesses",
        "cacheMisses",     "insertions",
        "forcedEvictions", "sharingInvalidations",
        "forcedInvalidations", "occupiedEntries",
        "capacityEntries", "occupancy",
        "invalidationRate", "avgInsertionAttempts"};
    std::vector<std::string> timed_keys = untimed_keys;
    for (const char *key : {"latencySamples", "latencyMean", "latencyP50",
                            "latencyP99", "latencyP999"})
        timed_keys.push_back(key);
    EXPECT_EQ(keysOf(timed[0]), timed_keys);
    EXPECT_EQ(keysOf(timed[1]), untimed_keys);
    EXPECT_EQ(number(at(timed[0], "access")), 100);
    EXPECT_EQ(number(at(timed[1], "access")), 150);
    EXPECT_EQ(number(at(timed[0], "occupancy")), 0.25);
    EXPECT_EQ(number(at(timed[0], "avgInsertionAttempts")), 2);
    EXPECT_EQ(number(at(timed[0], "latencyMean")), 24);
    EXPECT_EQ(number(at(timed[0], "latencyP99")), 30);
    EXPECT_EQ(number(at(timed[1], "occupancy")), 0.225);
    const std::vector<JsonValue> &untimed = at(series[1], "windows").items;
    ASSERT_EQ(untimed.size(), 1u);
    EXPECT_EQ(keysOf(untimed[0]), untimed_keys);
    EXPECT_EQ(number(at(untimed[0], "occupancy")), 0.375);
    EXPECT_TRUE(at(series[2], "windows").items.empty());
    EXPECT_TRUE(at(v.items[1], "series").items.empty());

    EXPECT_EQ(intervalSeriesToJson({}), "[\n]\n");
    EXPECT_TRUE(parseJson(intervalSeriesToJson({})).items.empty());
}

TEST(JsonDocuments, SeriesFileWriteFailuresThrow)
{
    const SeriesFixture fixture;
    const std::vector<IntervalSeriesGroup> groups = fixture.groups();
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("cdir_json_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "s.json").string();
    writeDocumentFile(path, intervalSeriesToJson(groups));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string written(1 << 12, '\0');
    written.resize(std::fread(written.data(), 1, written.size(), f));
    std::fclose(f);
    EXPECT_EQ(written, intervalSeriesToJson(groups));

    std::filesystem::remove_all(dir);
    EXPECT_THROW(writeDocumentFile(path, intervalSeriesToJson(groups)),
                 std::runtime_error);
    // Opening succeeds, every write fails: only the checked flush and
    // close can tell.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    EXPECT_THROW(writeDocumentFile("/dev/full", intervalSeriesToJson(groups)),
                 std::runtime_error);
}

} // namespace
} // namespace cdir
