/**
 * @file
 * Tests for the trace record/replay pipeline: text/binary parsing and
 * round trips, format conversion, error reporting (line numbers,
 * out-of-range cores, truncated/corrupt binary streams), recording
 * through TraceRecorder, driving the CMP simulator from either reader,
 * and the sweep engine's trace workload axis.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "sim/cmp_system.hh"
#include "sim/sweep.hh"
#include "workload/trace.hh"

namespace cdir {
namespace {

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** Deterministic mixed access stream exercising every op and core. */
std::vector<MemAccess>
sampleStream(std::size_t count, std::size_t cores = 8)
{
    std::vector<MemAccess> stream;
    stream.reserve(count);
    Rng rng(99);
    BlockAddr hot = 0x1000;
    for (std::size_t i = 0; i < count; ++i) {
        MemAccess a;
        a.core = static_cast<CoreId>(i % cores);
        // Mix small strides (delta-friendly) with far jumps.
        hot = rng.chance(0.8) ? hot + rng.below(64)
                              : (BlockAddr{rng.next()} >> 12);
        a.addr = hot;
        a.instruction = rng.chance(0.2);
        a.write = !a.instruction && rng.chance(0.3);
        stream.push_back(a);
    }
    return stream;
}

void
expectSameAccess(const MemAccess &a, const MemAccess &b, std::size_t i)
{
    EXPECT_EQ(a.core, b.core) << "record " << i;
    EXPECT_EQ(a.addr, b.addr) << "record " << i;
    EXPECT_EQ(a.write, b.write) << "record " << i;
    EXPECT_EQ(a.instruction, b.instruction) << "record " << i;
}

// --- text line format --------------------------------------------------------

TEST(TraceFormat, RoundTripsRecords)
{
    MemAccess a{3, 0xdeadbeef, true, false};
    MemAccess parsed;
    ASSERT_TRUE(parseTraceLine(formatTraceLine(a), parsed));
    EXPECT_EQ(parsed.core, 3u);
    EXPECT_EQ(parsed.addr, 0xdeadbeefull);
    EXPECT_TRUE(parsed.write);
    EXPECT_FALSE(parsed.instruction);
}

TEST(TraceFormat, InstructionMarker)
{
    MemAccess a{0, 0x10, false, true};
    const std::string line = formatTraceLine(a);
    EXPECT_EQ(line.back(), 'i');
    MemAccess parsed;
    ASSERT_TRUE(parseTraceLine(line, parsed));
    EXPECT_TRUE(parsed.instruction);
    EXPECT_FALSE(parsed.write);
}

TEST(TraceFormat, RejectsCommentsAndBlank)
{
    MemAccess parsed;
    std::string error;
    EXPECT_FALSE(parseTraceLine("# comment", parsed, &error));
    EXPECT_TRUE(error.empty()) << "comments are skippable, not errors";
    EXPECT_FALSE(parseTraceLine("", parsed, &error));
    EXPECT_TRUE(error.empty());
    EXPECT_FALSE(parseTraceLine("   ", parsed, &error));
    EXPECT_TRUE(error.empty());
}

TEST(TraceFormat, RejectsMalformedWithReason)
{
    MemAccess parsed;
    std::string error;
    EXPECT_FALSE(parseTraceLine("1 zzz r", parsed, &error));
    EXPECT_NE(error.find("block address"), std::string::npos) << error;
    EXPECT_FALSE(parseTraceLine("1 10", parsed, &error));
    EXPECT_FALSE(parseTraceLine("1 10 x", parsed, &error));
    EXPECT_NE(error.find("operation"), std::string::npos) << error;
    EXPECT_FALSE(parseTraceLine("1 10 rw", parsed, &error));
}

TEST(TraceFormat, RejectsCoreIdOverflowInsteadOfWrapping)
{
    // 2^32 would wrap to core 0 under a silent cast; it must fail.
    MemAccess parsed;
    std::string error;
    EXPECT_FALSE(parseTraceLine("4294967296 10 r", parsed, &error));
    EXPECT_NE(error.find("overflows"), std::string::npos) << error;
    // The maximum representable core id still parses.
    EXPECT_TRUE(parseTraceLine("4294967295 10 r", parsed));
    EXPECT_EQ(parsed.core, 4294967295u);
}

TEST(TraceFormat, RejectsOutOfRangeCore)
{
    MemAccess parsed;
    std::string error;
    EXPECT_TRUE(parseTraceLine("3 10 r", parsed, &error, 4));
    EXPECT_FALSE(parseTraceLine("4 10 r", parsed, &error, 4));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(TraceFormat, RejectsReservedAndOverflowingAddresses)
{
    // ffffffffffffffff marks an empty slot in every tag lane, so no
    // record may carry it; a 17-digit address must not saturate to it.
    MemAccess parsed;
    std::string error;
    EXPECT_FALSE(parseTraceLine("0 ffffffffffffffff r", parsed, &error));
    EXPECT_NE(error.find("reserved"), std::string::npos) << error;
    EXPECT_FALSE(parseTraceLine("0 1ffffffffffffffff r", parsed, &error));
    EXPECT_NE(error.find("bad block address"), std::string::npos) << error;
    EXPECT_TRUE(parseTraceLine("0 fffffffffffffffe r", parsed, &error));
    EXPECT_EQ(parsed.addr, 0xfffffffffffffffeull);
}

TEST(TraceFormat, ParsesHexAddresses)
{
    MemAccess parsed;
    ASSERT_TRUE(parseTraceLine("7 1f0a w", parsed));
    EXPECT_EQ(parsed.addr, 0x1f0aull);
    EXPECT_EQ(parsed.core, 7u);
    EXPECT_TRUE(parsed.write);
}

// --- text file I/O -----------------------------------------------------------

TEST(TextTraceFile, WriteThenReadBack)
{
    const std::string path = tempPath("cdir_trace_roundtrip.txt");
    {
        TextTraceWriter writer(path);
        writer.write({0, 0x100, false, false});
        writer.write({1, 0x200, true, false});
        writer.write({2, 0x300, false, true});
        EXPECT_EQ(writer.recordsWritten(), 3u);
    }
    TextTraceReader reader(path);
    ASSERT_FALSE(reader.exhausted());
    MemAccess a = reader.next();
    EXPECT_EQ(a.addr, 0x100u);
    a = reader.next();
    EXPECT_TRUE(a.write);
    a = reader.next();
    EXPECT_TRUE(a.instruction);
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(reader.recordsRead(), 3u);
    std::filesystem::remove(path);
}

TEST(TextTraceFile, SkipsCommentsReportsMalformedLineNumbers)
{
    const std::string path = tempPath("cdir_trace_dirty.txt");
    {
        std::ofstream out(path);
        out << "# header\n"
            << "0 10 r\n"
            << "garbage line\n"
            << "\n"
            << "1 20 w\n";
    }
    TextTraceReader reader(path);
    EXPECT_EQ(reader.next().addr, 0x10u);
    EXPECT_EQ(reader.next().addr, 0x20u);
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(reader.malformedRecords(), 1u);
    // The error names the file and the 1-based line of the bad record.
    EXPECT_NE(reader.lastError().find(path + ":3:"), std::string::npos)
        << reader.lastError();
    std::filesystem::remove(path);
}

TEST(TextTraceFile, StrictModeThrowsWithLineNumber)
{
    const std::string path = tempPath("cdir_trace_strict.txt");
    {
        std::ofstream out(path);
        out << "0 10 r\n"
            << "0 zzz r\n";
    }
    TraceReadOptions opts;
    opts.strict = true;
    try {
        TextTraceReader reader(path, opts);
        reader.next(); // line 2 is buffered lazily; drain to reach it
        FAIL() << "strict reader accepted a malformed line";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(TextTraceFile, OutOfRangeCoreIsRejectedNotWrapped)
{
    const std::string path = tempPath("cdir_trace_badcore.txt");
    {
        std::ofstream out(path);
        out << "0 10 r\n"
            << "9 20 r\n"  // out of range for a 4-core replay
            << "3 30 r\n";
    }
    TraceReadOptions opts;
    opts.maxCores = 4;
    TextTraceReader reader(path, opts);
    EXPECT_EQ(reader.next().addr, 0x10u);
    EXPECT_EQ(reader.next().addr, 0x30u);
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(reader.malformedRecords(), 1u);
    EXPECT_NE(reader.lastError().find("out of range"), std::string::npos)
        << reader.lastError();
    std::filesystem::remove(path);
}

TEST(TextTraceFile, ReservedAddressIsMalformedAtItsLine)
{
    const std::string path = tempPath("cdir_trace_reserved.txt");
    {
        std::ofstream out(path);
        out << "0 10 r\n"
            << "1 ffffffffffffffff w\n"
            << "2 20 r\n";
    }
    // Lenient: skipped, counted, and reported with its line number.
    TextTraceReader reader(path);
    EXPECT_EQ(reader.next().addr, 0x10u);
    EXPECT_EQ(reader.next().addr, 0x20u);
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(reader.malformedRecords(), 1u);
    EXPECT_NE(reader.lastError().find(path + ":2:"), std::string::npos)
        << reader.lastError();
    EXPECT_NE(reader.lastError().find("reserved"), std::string::npos)
        << reader.lastError();

    TraceReadOptions opts;
    opts.strict = true;
    try {
        TextTraceReader strict(path, opts);
        while (!strict.exhausted())
            strict.next();
        FAIL() << "strict reader accepted the reserved address";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(TextTraceFile, MissingFileThrows)
{
    EXPECT_THROW(TextTraceReader("/nonexistent/path/trace.txt"),
                 std::runtime_error);
}

// --- binary file I/O ---------------------------------------------------------

TEST(BinaryTraceFile, WriteThenReadBack)
{
    const std::string path = tempPath("cdir_trace_roundtrip.ctr");
    const auto stream = sampleStream(4096);
    {
        BinaryTraceWriter writer(path);
        for (const MemAccess &a : stream)
            writer.write(a);
        EXPECT_EQ(writer.recordsWritten(), stream.size());
    }
    BinaryTraceReader reader(path);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_FALSE(reader.exhausted()) << "record " << i;
        expectSameAccess(reader.next(), stream[i], i);
    }
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(reader.recordsRead(), stream.size());
    std::filesystem::remove(path);
}

TEST(BinaryTraceFile, DeltaCodingIsCompact)
{
    // The whole point of the binary format: local strides collapse into
    // a few bytes per record, far below the text encoding.
    const std::string binary_path = tempPath("cdir_trace_compact.ctr");
    const std::string text_path = tempPath("cdir_trace_compact.txt");
    const auto stream = sampleStream(4096);
    {
        BinaryTraceWriter binary(binary_path);
        TextTraceWriter text(text_path);
        for (const MemAccess &a : stream) {
            binary.write(a);
            text.write(a);
        }
    }
    const auto binary_size = std::filesystem::file_size(binary_path);
    const auto text_size = std::filesystem::file_size(text_path);
    EXPECT_LT(binary_size, text_size / 2)
        << "binary " << binary_size << "B vs text " << text_size << "B";
    EXPECT_LE(double(binary_size) / double(stream.size()), 6.0)
        << "expected a few bytes per record";
    std::filesystem::remove(binary_path);
    std::filesystem::remove(text_path);
}

TEST(BinaryTraceFile, RejectsCorruptHeader)
{
    const std::string path = tempPath("cdir_trace_badmagic.ctr");
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOPE0000";
    }
    EXPECT_THROW(BinaryTraceReader{path}, std::runtime_error);
    std::filesystem::remove(path);
}

TEST(BinaryTraceFile, RejectsShortHeader)
{
    const std::string path = tempPath("cdir_trace_shorthdr.ctr");
    {
        std::ofstream out(path, std::ios::binary);
        out << "CDT"; // EOF inside the magic
    }
    EXPECT_THROW(BinaryTraceReader{path}, std::runtime_error);
    std::filesystem::remove(path);
}

TEST(BinaryTraceFile, RejectsUnsupportedVersion)
{
    const std::string path = tempPath("cdir_trace_badver.ctr");
    {
        std::ofstream out(path, std::ios::binary);
        const char header[8] = {'C', 'D', 'T', 'R', 99, 0, 0, 0};
        out.write(header, sizeof header);
    }
    EXPECT_THROW(BinaryTraceReader{path}, std::runtime_error);
    std::filesystem::remove(path);
}

TEST(BinaryTraceFile, RejectsTruncatedRecord)
{
    const std::string full = tempPath("cdir_trace_full.ctr");
    {
        BinaryTraceWriter writer(full);
        for (const MemAccess &a : sampleStream(64))
            writer.write(a);
    }
    // Chop the last byte off: the final record loses part of a varint.
    const std::string truncated = tempPath("cdir_trace_truncated.ctr");
    {
        std::ifstream in(full, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), 9u);
        std::ofstream out(truncated, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 1));
    }
    BinaryTraceReader reader(truncated);
    EXPECT_THROW(
        {
            while (!reader.exhausted())
                reader.next();
        },
        std::runtime_error);
    EXPECT_NE(reader.lastError().find("truncated"), std::string::npos)
        << reader.lastError();
    std::filesystem::remove(full);
    std::filesystem::remove(truncated);
}

TEST(BinaryTraceFile, RejectsNonCanonicalVarint)
{
    // A 10-byte varint whose final byte carries more than bit 63 would
    // silently lose value bits; the reader must call it corruption.
    const std::string path = tempPath("cdir_trace_noncanon.ctr");
    {
        std::ofstream out(path, std::ios::binary);
        const char header[8] = {'C', 'D', 'T', 'R', 1, 0, 0, 0};
        out.write(header, sizeof header);
        const unsigned char varint[10] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                          0xff, 0xff, 0xff, 0xff, 0x7f};
        out.write(reinterpret_cast<const char *>(varint), sizeof varint);
    }
    try {
        BinaryTraceReader reader(path); // constructor buffers record 1
        FAIL() << "non-canonical varint was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("non-canonical"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(BinaryTraceFile, StrictModeRejectsOutOfRangeCore)
{
    const std::string path = tempPath("cdir_trace_bincore.ctr");
    {
        BinaryTraceWriter writer(path);
        writer.write({1, 0x10, false, false});
        writer.write({9, 0x20, false, false});
    }
    TraceReadOptions tolerant;
    tolerant.maxCores = 4;
    BinaryTraceReader skipper(path, tolerant);
    EXPECT_EQ(skipper.next().addr, 0x10u);
    EXPECT_TRUE(skipper.exhausted());
    EXPECT_EQ(skipper.malformedRecords(), 1u);

    TraceReadOptions strict = tolerant;
    strict.strict = true;
    EXPECT_THROW(
        {
            BinaryTraceReader reader(path, strict);
            while (!reader.exhausted())
                reader.next();
        },
        std::runtime_error);
    std::filesystem::remove(path);
}

TEST(BinaryTraceFile, ReservedAddressIsMalformedAtItsByteOffset)
{
    const std::string path = tempPath("cdir_trace_reserved.ctr");
    {
        BinaryTraceWriter writer(path);
        writer.write({0, 0x10, false, false});
        writer.write({1, kVacantTag, true, false});
        writer.write({2, 0x20, false, false});
    }
    // The record is well framed, so a tolerant reader stays in sync:
    // it skips the record and decodes the next delta correctly.
    BinaryTraceReader tolerant(path);
    EXPECT_EQ(tolerant.next().addr, 0x10u);
    EXPECT_EQ(tolerant.next().addr, 0x20u);
    EXPECT_TRUE(tolerant.exhausted());
    EXPECT_EQ(tolerant.malformedRecords(), 1u);
    EXPECT_NE(tolerant.lastError().find(": byte "), std::string::npos)
        << tolerant.lastError();
    EXPECT_NE(tolerant.lastError().find("reserved"), std::string::npos)
        << tolerant.lastError();

    TraceReadOptions strict;
    strict.strict = true;
    try {
        BinaryTraceReader reader(path, strict);
        while (!reader.exhausted())
            reader.next();
        FAIL() << "strict reader accepted the reserved address";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(": byte "), std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

// --- format sniffing and conversion ------------------------------------------

TEST(TraceConvert, SniffsFormats)
{
    const std::string text_path = tempPath("cdir_sniff.txt");
    const std::string binary_path = tempPath("cdir_sniff.ctr");
    {
        TextTraceWriter text(text_path);
        text.write({0, 0x10, false, false});
        BinaryTraceWriter binary(binary_path);
        binary.write({0, 0x10, false, false});
    }
    EXPECT_FALSE(traceFileIsBinary(text_path));
    EXPECT_TRUE(traceFileIsBinary(binary_path));
    EXPECT_EQ(makeTraceReader(text_path)->next().addr, 0x10u);
    EXPECT_EQ(makeTraceReader(binary_path)->next().addr, 0x10u);
    std::filesystem::remove(text_path);
    std::filesystem::remove(binary_path);
}

TEST(TraceConvert, TextBinaryTextIsLossless)
{
    const auto stream = sampleStream(2048);
    const std::string text1 = tempPath("cdir_conv1.txt");
    const std::string binary = tempPath("cdir_conv2.ctr");
    const std::string text2 = tempPath("cdir_conv3.txt");
    {
        TextTraceWriter writer(text1);
        for (const MemAccess &a : stream)
            writer.write(a);
    }
    auto convert = [](const std::string &from, const std::string &to,
                      bool to_binary) {
        const auto reader = makeTraceReader(from);
        const auto sink = makeTraceSink(to, to_binary);
        while (!reader->exhausted())
            sink->write(reader->next());
        sink->close();
    };
    convert(text1, binary, true);
    convert(binary, text2, false);

    const auto a = makeTraceReader(text1);
    const auto b = makeTraceReader(text2);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_FALSE(a->exhausted());
        ASSERT_FALSE(b->exhausted());
        expectSameAccess(a->next(), b->next(), i);
    }
    EXPECT_TRUE(a->exhausted());
    EXPECT_TRUE(b->exhausted());
    std::filesystem::remove(text1);
    std::filesystem::remove(binary);
    std::filesystem::remove(text2);
}

// --- recording ---------------------------------------------------------------

TEST(TraceRecorderTest, TeesEveryDeliveredAccess)
{
    WorkloadParams params;
    params.numCores = 4;
    params.seed = 3;
    const std::string path = tempPath("cdir_recorder.ctr");

    std::vector<MemAccess> delivered;
    {
        SyntheticSource source(params);
        const auto sink = makeTraceSink(path, true);
        TraceRecorder recorder(source, *sink);
        EXPECT_FALSE(recorder.exhausted());
        for (int i = 0; i < 5000; ++i)
            delivered.push_back(recorder.next());
        sink->close();
        EXPECT_EQ(sink->recordsWritten(), delivered.size());
    }
    const auto reader = makeTraceReader(path);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        expectSameAccess(reader->next(), delivered[i], i);
    EXPECT_TRUE(reader->exhausted());
    std::filesystem::remove(path);
}

// --- replay through the simulator --------------------------------------------

WorkloadParams
tinyWorkload()
{
    WorkloadParams params;
    params.numCores = 4;
    params.codeBlocks = 32;
    params.sharedBlocks = 64;
    params.privateBlocksPerCore = 64;
    params.seed = 21;
    return params;
}

CmpConfig
tinyConfig()
{
    CmpConfig cfg;
    cfg.numCores = 4;
    cfg.numSlices = 4;
    cfg.privateCache = CacheConfig{32, 2};
    cfg.directory.organization = "Cuckoo";
    cfg.directory.ways = 4;
    cfg.directory.sets = 32;
    return cfg;
}

TEST(TraceReplay, BothFormatsDriveSimulatorIdenticallyToGenerator)
{
    // Record a synthetic stream in both formats, then replay each: the
    // systems must land in exactly the same statistical state.
    const WorkloadParams params = tinyWorkload();
    const std::string text_path = tempPath("cdir_trace_replay.txt");
    const std::string binary_path = tempPath("cdir_trace_replay.ctr");
    {
        SyntheticSource source(params);
        const auto text_sink = makeTraceSink(text_path, false);
        const auto binary_sink = makeTraceSink(binary_path, true);
        TraceRecorder text_tee(source, *text_sink);
        TraceRecorder both(text_tee, *binary_sink);
        for (int i = 0; i < 20000; ++i)
            both.next();
    }

    const CmpConfig cfg = tinyConfig();
    CmpSystem direct(cfg);
    SyntheticSource gen(params);
    direct.run(gen, 20000);

    for (const std::string &path : {text_path, binary_path}) {
        CmpSystem replayed(cfg);
        const auto reader =
            makeTraceReader(path, TraceReadOptions{cfg.numCores, true});
        const std::uint64_t executed =
            replayed.run(*reader, 1u << 30);
        EXPECT_EQ(executed, 20000u) << path;

        EXPECT_EQ(direct.stats().cacheMisses,
                  replayed.stats().cacheMisses)
            << path;
        EXPECT_EQ(direct.aggregateDirectoryStats().insertions,
                  replayed.aggregateDirectoryStats().insertions)
            << path;
        EXPECT_EQ(direct.aggregateDirectoryStats().forcedEvictions,
                  replayed.aggregateDirectoryStats().forcedEvictions)
            << path;
        EXPECT_DOUBLE_EQ(direct.currentOccupancy(),
                         replayed.currentOccupancy())
            << path;
    }
    std::filesystem::remove(text_path);
    std::filesystem::remove(binary_path);
}

TEST(TraceReplay, ExperimentOverTraceMatchesLiveSyntheticRun)
{
    // The acceptance criterion behind `trace_tool record` + `replay`:
    // a recorded trace driven through runExperiment must be
    // bit-identical to the live synthetic experiment, because the
    // recording captures the exact access stream the generator feeds
    // the measured system.
    const WorkloadParams params = tinyWorkload();
    ExperimentOptions options;
    options.warmupAccesses = 8000;
    options.measureAccesses = 8000;
    options.occupancySampleEvery = 500;

    const std::string path = tempPath("cdir_trace_experiment.ctr");
    {
        SyntheticSource source(params);
        const auto sink = makeTraceSink(path, true);
        TraceRecorder recorder(source, *sink);
        for (std::uint64_t i = 0;
             i < options.warmupAccesses + options.measureAccesses; ++i)
            recorder.next();
    }

    const CmpConfig cfg = tinyConfig();
    const ExperimentResult live = runExperiment(cfg, params, options);
    const ExperimentResult replayed =
        runExperiment(cfg, traceWorkloadParams(path), options);

    EXPECT_EQ(live.directory.insertions, replayed.directory.insertions);
    EXPECT_EQ(live.directory.forcedEvictions,
              replayed.directory.forcedEvictions);
    EXPECT_EQ(live.directory.hits, replayed.directory.hits);
    EXPECT_EQ(live.system.cacheMisses, replayed.system.cacheMisses);
    EXPECT_DOUBLE_EQ(live.avgOccupancy, replayed.avgOccupancy);
    EXPECT_DOUBLE_EQ(live.avgInsertionAttempts,
                     replayed.avgInsertionAttempts);
    std::filesystem::remove(path);
}

TEST(TraceSweepAxis, TraceCellsAreBitIdenticalAtAnyJobCount)
{
    // The sweep engine's trace axis: every cell opens an independent
    // reader, so a grid over one trace file is deterministic across
    // worker counts.
    const std::string path = tempPath("cdir_trace_sweep.ctr");
    {
        SyntheticSource source(tinyWorkload());
        const auto sink = makeTraceSink(path, true);
        TraceRecorder recorder(source, *sink);
        for (int i = 0; i < 16000; ++i)
            recorder.next();
    }

    ExperimentOptions options;
    options.warmupAccesses = 4000;
    options.measureAccesses = 4000;

    SweepSpec spec;
    spec.options("", options);
    appendTraceWorkloads(spec, path);
    ASSERT_EQ(spec.workloads().size(), 1u);
    for (const char *org : {"Cuckoo", "Sparse", "Skewed", "Elbow"}) {
        CmpConfig cfg = tinyConfig();
        cfg.directory.organization = org;
        cfg.directory.ways = org == std::string("Sparse") ? 8 : 4;
        spec.config(org, cfg);
    }

    const auto serial = SweepRunner(SweepOptions{1, ""}).run(spec);
    const auto parallel = SweepRunner(SweepOptions{4, ""}).run(spec);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].configLabel, parallel[i].configLabel);
        EXPECT_EQ(serial[i].result.directory.insertions,
                  parallel[i].result.directory.insertions)
            << serial[i].configLabel;
        EXPECT_EQ(serial[i].result.directory.forcedEvictions,
                  parallel[i].result.directory.forcedEvictions)
            << serial[i].configLabel;
        EXPECT_DOUBLE_EQ(serial[i].result.avgOccupancy,
                         parallel[i].result.avgOccupancy)
            << serial[i].configLabel;
    }
    std::filesystem::remove(path);
}

TEST(TraceSweepAxis, FailingCellsAreDroppedNotFatal)
{
    // A trace recorded on more cores than the grid's CMP makes the
    // cell's strict reader throw; the sweep must report and drop that
    // cell instead of propagating the exception out of run().
    const std::string path = tempPath("cdir_trace_too_many_cores.ctr");
    {
        WorkloadParams params = tinyWorkload();
        params.numCores = 8; // grid CMP below has 4
        SyntheticSource source(params);
        const auto sink = makeTraceSink(path, true);
        TraceRecorder recorder(source, *sink);
        for (int i = 0; i < 2000; ++i)
            recorder.next();
        sink->close();
    }
    SweepSpec spec;
    ExperimentOptions options;
    options.warmupAccesses = 500;
    options.measureAccesses = 500;
    spec.options("", options);
    appendTraceWorkloads(spec, path);
    spec.config("tiny", tinyConfig());

    const auto records = SweepRunner(SweepOptions{2, ""}).run(spec);
    EXPECT_TRUE(records.empty());
    std::filesystem::remove(path);
}

TEST(TraceSweepAxis, CollidingStemsGetFilenameLabels)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "cdir_trace_stem_collision";
    fs::create_directories(dir);
    {
        TextTraceWriter a((dir / "oltp.trace").string());
        a.write({0, 0x10, false, false});
        BinaryTraceWriter b((dir / "oltp.ctr").string());
        b.write({0, 0x10, false, false});
        TextTraceWriter c((dir / "web.trace").string());
        c.write({0, 0x20, false, false});
    }
    SweepSpec spec;
    appendTraceWorkloads(spec, dir.string());
    ASSERT_EQ(spec.workloads().size(), 3u);
    // Sorted file order; the colliding stems keep their extensions so
    // labels stay unique, the lone stem stays short.
    EXPECT_EQ(spec.workloads()[0].label, "oltp.ctr");
    EXPECT_EQ(spec.workloads()[1].label, "oltp.trace");
    EXPECT_EQ(spec.workloads()[2].label, "web");
    fs::remove_all(dir);
}

TEST(TraceWorkloadParamsTest, NamesCellAfterFileStem)
{
    const WorkloadParams params =
        traceWorkloadParams("/data/traces/oltp_like.ctr");
    EXPECT_EQ(params.name, "oltp_like");
    EXPECT_EQ(params.tracePath, "/data/traces/oltp_like.ctr");
}

TEST(ListTraceFilesTest, SingleFileAndSortedDirectory)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "cdir_trace_corpus";
    fs::create_directories(dir);
    for (const char *name : {"b.ctr", "a.ctr", "c.trace"}) {
        TextTraceWriter writer((dir / name).string());
        writer.write({0, 0x10, false, false});
    }
    // Stray non-trace files in a corpus must not poison the sweep axis.
    {
        std::ofstream readme(dir / "README.md");
        readme << "# corpus notes\nThese traces were captured on ...\n";
        std::ofstream sums(dir / "SHA256SUMS");
        sums << "deadbeef  a.ctr\n";
    }

    const auto single = listTraceFiles((dir / "a.ctr").string());
    ASSERT_EQ(single.size(), 1u);

    const auto all = listTraceFiles(dir.string());
    ASSERT_EQ(all.size(), 3u);
    EXPECT_TRUE(all[0].ends_with("a.ctr"));
    EXPECT_TRUE(all[1].ends_with("b.ctr"));
    EXPECT_TRUE(all[2].ends_with("c.trace"));

    EXPECT_THROW(listTraceFiles("/nonexistent/corpus"),
                 std::runtime_error);
    fs::remove_all(dir);
}

TEST(SyntheticSourceTest, WrapsGenerator)
{
    WorkloadParams params;
    params.numCores = 2;
    SyntheticSource source(params);
    EXPECT_FALSE(source.exhausted());
    const MemAccess a = source.next();
    EXPECT_LT(a.core, 2u);
}

// --- ChampSim-style external text front-end ----------------------------------

TEST(ChampSimFormat, ParsesAddressFirstLines)
{
    MemAccess parsed;
    ASSERT_TRUE(parseChampSimLine("1a2b 3 w", parsed));
    EXPECT_EQ(parsed.addr, 0x1a2bull);
    EXPECT_EQ(parsed.core, 3u);
    EXPECT_TRUE(parsed.write);
    EXPECT_FALSE(parsed.instruction);

    // 0x prefixes (the common external form) are accepted.
    ASSERT_TRUE(parseChampSimLine("0xdeadbeef 0 i", parsed));
    EXPECT_EQ(parsed.addr, 0xdeadbeefull);
    EXPECT_TRUE(parsed.instruction);

    // Comments and blanks skip without error.
    std::string error = "sentinel";
    EXPECT_FALSE(parseChampSimLine("# a comment", parsed, &error));
    EXPECT_TRUE(error.empty());
    EXPECT_FALSE(parseChampSimLine("   ", parsed, &error));
    EXPECT_TRUE(error.empty());
}

TEST(ChampSimFormat, RejectsMalformedLines)
{
    MemAccess parsed;
    std::string error;
    EXPECT_FALSE(parseChampSimLine("1a2b 3", parsed, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseChampSimLine("1a2b 3 x", parsed, &error));
    EXPECT_NE(error.find("bad operation"), std::string::npos);
    EXPECT_FALSE(parseChampSimLine("zzz 3 r", parsed, &error));
    EXPECT_NE(error.find("bad block address"), std::string::npos);
    EXPECT_FALSE(parseChampSimLine("10 6 r", parsed, &error, 4));
    EXPECT_NE(error.find("out of range"), std::string::npos);
    // Strict import: an unreduced capture with extra columns (latency,
    // PC) must error, never be silently truncated to the first three.
    EXPECT_FALSE(parseChampSimLine("10 2 r 12345", parsed, &error));
    EXPECT_NE(error.find("trailing field"), std::string::npos);
    // ...but an end-of-line comment is fine.
    EXPECT_TRUE(parseChampSimLine("10 2 r # warmup", parsed, &error));
}

TEST(ChampSimReader, ReadsExternalTracesWithLineNumberedErrors)
{
    const std::string path = tempPath("cdir_champsim.txt");
    {
        std::ofstream out(path);
        out << "# external capture\n"
               "10 0 r\n"
               "garbage line\n"
               "0x20 1 w\n"
               "30 2 i\n";
    }

    // Tolerant: the malformed line is skipped, counted, and its error
    // carries the line number.
    ChampSimTraceReader tolerant(path);
    std::vector<MemAccess> records;
    while (!tolerant.exhausted())
        records.push_back(tolerant.next());
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].addr, 0x10ull);
    EXPECT_EQ(records[1].core, 1u);
    EXPECT_TRUE(records[2].instruction);
    EXPECT_EQ(tolerant.malformedRecords(), 1u);
    EXPECT_NE(tolerant.lastError().find(":3:"), std::string::npos)
        << tolerant.lastError();

    // Strict (what trace_tool convert uses): the malformed line aborts
    // with its line number.
    try {
        ChampSimTraceReader strict(path, TraceReadOptions{0, true});
        while (!strict.exhausted())
            strict.next();
        FAIL() << "strict reader accepted a malformed line";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(":3:"), std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(ChampSimReader, ReservedAddressIsMalformedAtItsLine)
{
    const std::string path = tempPath("cdir_champsim_reserved.txt");
    {
        std::ofstream out(path);
        out << "10 0 r\n"
               "0xffffffffffffffff 1 w\n"
               "20 2 r\n";
    }
    ChampSimTraceReader tolerant(path);
    EXPECT_EQ(tolerant.next().addr, 0x10u);
    EXPECT_EQ(tolerant.next().addr, 0x20u);
    EXPECT_TRUE(tolerant.exhausted());
    EXPECT_EQ(tolerant.malformedRecords(), 1u);
    EXPECT_NE(tolerant.lastError().find(":2:"), std::string::npos)
        << tolerant.lastError();
    EXPECT_NE(tolerant.lastError().find("reserved"), std::string::npos)
        << tolerant.lastError();

    try {
        ChampSimTraceReader strict(path, TraceReadOptions{0, true});
        while (!strict.exhausted())
            strict.next();
        FAIL() << "strict reader accepted the reserved address";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(ChampSimReader, ConvertsLosslesslyIntoNativeFormats)
{
    const std::string in_path = tempPath("cdir_champsim_in.txt");
    const std::vector<MemAccess> stream = sampleStream(500);
    {
        std::ofstream out(in_path);
        for (const MemAccess &a : stream) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%llx %u %c",
                          static_cast<unsigned long long>(a.addr), a.core,
                          a.instruction ? 'i' : (a.write ? 'w' : 'r'));
            out << buf << '\n';
        }
    }

    // The trace_tool convert pipeline: ChampSim text in, CDTR binary
    // out, record for record.
    const std::string out_path = tempPath("cdir_champsim_out.ctr");
    {
        ChampSimTraceReader reader(in_path, TraceReadOptions{0, true});
        BinaryTraceWriter writer(out_path);
        while (!reader.exhausted())
            writer.write(reader.next());
        writer.close();
        EXPECT_EQ(writer.recordsWritten(), stream.size());
    }
    BinaryTraceReader replay(out_path);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_FALSE(replay.exhausted());
        expectSameAccess(stream[i], replay.next(), i);
    }
    EXPECT_TRUE(replay.exhausted());
    std::filesystem::remove(in_path);
    std::filesystem::remove(out_path);
}

} // namespace
} // namespace cdir
