#include "workload/trace.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace cdir {

namespace {

/** Binary format framing (see trace.hh file comment). */
constexpr char binaryMagic[4] = {'C', 'D', 'T', 'R'};
constexpr std::uint8_t binaryVersion = 1;
constexpr std::size_t binaryHeaderBytes = 8;

/** Operation codes packed into the low bits of the record header. */
enum BinaryOp : std::uint64_t
{
    opRead = 0,
    opWrite = 1,
    opIfetch = 2,
};

std::uint64_t
packHeader(const MemAccess &access)
{
    const std::uint64_t op = access.instruction
                                 ? opIfetch
                                 : (access.write ? opWrite : opRead);
    return (std::uint64_t{access.core} << 2) | op;
}

std::uint64_t
zigzagEncode(std::uint64_t delta)
{
    const auto signed_delta = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(signed_delta) << 1) ^
           static_cast<std::uint64_t>(signed_delta >> 63);
}

std::uint64_t
zigzagDecode(std::uint64_t encoded)
{
    return (encoded >> 1) ^ (~(encoded & 1) + 1);
}

} // namespace

// --- text format -------------------------------------------------------------

namespace {

// Field validators shared by the native and ChampSim line grammars —
// only the column order (and the external trailing-field check)
// differs between the two parsers.

/** True for a comment or blank line (skippable without error). */
bool
skippableLine(const std::string &line)
{
    const std::size_t begin = line.find_first_not_of(" \t");
    return begin == std::string::npos || line[begin] == '#';
}

/** Validate the <r|w|i> token; @p why receives the reason on failure. */
bool
checkOpKind(const std::string &kind, std::string &why)
{
    if (kind.size() == 1 &&
        (kind[0] == 'r' || kind[0] == 'w' || kind[0] == 'i'))
        return true;
    why = "bad operation '" + kind + "' (expected r, w, or i)";
    return false;
}

/** Bounds-check a parsed core id against CoreId and @p max_cores. */
bool
checkCoreId(std::uint64_t core, std::size_t max_cores, std::string &why)
{
    if (core > std::numeric_limits<CoreId>::max()) {
        why = "core id " + std::to_string(core) + " overflows CoreId";
        return false;
    }
    if (max_cores != 0 && core >= max_cores) {
        why = "core id " + std::to_string(core) +
              " out of range (trace limited to " +
              std::to_string(max_cores) + " cores)";
        return false;
    }
    return true;
}

/** Whole-token hex block address (bare or 0x-prefixed). */
bool
parseHexAddr(const std::string &text, BlockAddr &addr)
{
    char *end = nullptr;
    errno = 0;
    addr = std::strtoull(text.c_str(), &end, 16);
    // An out-of-range value saturates to ~0 (ERANGE): reject it rather
    // than read a different address than the file holds.
    return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

/** Why a record carrying kVacantTag cannot be simulated. */
constexpr const char *kReservedAddrReason =
    "block address ffffffffffffffff is reserved (marks an empty slot)";

} // namespace

bool
parseTraceLine(const std::string &line, MemAccess &access,
               std::string *error, std::size_t max_cores)
{
    if (error)
        error->clear();
    if (skippableLine(line))
        return false;

    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };

    std::istringstream is(line);
    std::uint64_t core = 0;
    std::string addr_text, kind, why;
    if (!(is >> core >> addr_text >> kind))
        return fail("expected '<core> <block-addr-hex> <r|w|i>'");
    if (!checkOpKind(kind, why) || !checkCoreId(core, max_cores, why))
        return fail(why);
    BlockAddr addr = 0;
    if (!parseHexAddr(addr_text, addr))
        return fail("bad block address '" + addr_text + "'");
    if (addr == kVacantTag)
        return fail(kReservedAddrReason);

    access.core = static_cast<CoreId>(core);
    access.addr = addr;
    access.write = kind[0] == 'w';
    access.instruction = kind[0] == 'i';
    return true;
}

std::string
formatTraceLine(const MemAccess &access)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%u %llx %c", access.core,
                  static_cast<unsigned long long>(access.addr),
                  access.instruction ? 'i' : (access.write ? 'w' : 'r'));
    return buf;
}

bool
parseChampSimLine(const std::string &line, MemAccess &access,
                  std::string *error, std::size_t max_cores)
{
    if (error)
        error->clear();
    if (skippableLine(line))
        return false;

    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };

    std::istringstream is(line);
    std::string addr_text, kind, extra, why;
    std::uint64_t core = 0;
    if (!(is >> addr_text >> core >> kind))
        return fail("expected '<block-addr-hex> <core> <r|w|i>'");
    // Strict import contract: an unreduced external capture (extra
    // latency/PC columns) must abort, never be silently truncated.
    if (is >> extra && extra[0] != '#')
        return fail("trailing field '" + extra +
                    "' (reduce the capture to "
                    "'<block-addr-hex> <core> <r|w|i>')");
    if (!checkOpKind(kind, why) || !checkCoreId(core, max_cores, why))
        return fail(why);
    BlockAddr addr = 0;
    if (!parseHexAddr(addr_text, addr))
        return fail("bad block address '" + addr_text + "'");
    if (addr == kVacantTag)
        return fail(kReservedAddrReason);

    access.core = static_cast<CoreId>(core);
    access.addr = addr;
    access.write = kind[0] == 'w';
    access.instruction = kind[0] == 'i';
    return true;
}

LineTraceReader::LineTraceReader(const std::string &path,
                                 TraceReadOptions options)
    : opts(options), file(path), in(path)
{
    if (!in.is_open())
        throw std::runtime_error("cannot open trace: " + path);
}

void
LineTraceReader::recordError(std::uint64_t line_number,
                             const std::string &what)
{
    ++malformed;
    error = file + ":" + std::to_string(line_number) + ": " + what;
    if (opts.strict)
        throw std::runtime_error(error);
}

void
LineTraceReader::fill()
{
    hasBuffered = false;
    std::string line, parse_error;
    while (std::getline(in, line)) {
        ++lineNumber;
        if (parseLine(line, buffered, parse_error)) {
            hasBuffered = true;
            return;
        }
        if (!parse_error.empty())
            recordError(lineNumber, parse_error);
    }
}

MemAccess
LineTraceReader::next()
{
    if (!hasBuffered)
        throw std::runtime_error("trace exhausted: " + file);
    const MemAccess result = buffered;
    ++count;
    fill();
    return result;
}

TextTraceReader::TextTraceReader(const std::string &path,
                                 TraceReadOptions options)
    : LineTraceReader(path, options)
{
    prime();
}

bool
TextTraceReader::parseLine(const std::string &line, MemAccess &access,
                           std::string &error) const
{
    return parseTraceLine(line, access, &error, opts.maxCores);
}

ChampSimTraceReader::ChampSimTraceReader(const std::string &path,
                                         TraceReadOptions options)
    : LineTraceReader(path, options)
{
    prime();
}

bool
ChampSimTraceReader::parseLine(const std::string &line, MemAccess &access,
                               std::string &error) const
{
    return parseChampSimLine(line, access, &error, opts.maxCores);
}

TextTraceWriter::TextTraceWriter(const std::string &path)
    : file(path), out(path)
{
    if (!out.is_open())
        throw std::runtime_error("cannot create trace: " + path);
    out << "# cuckoo-directory trace v1: <core> <block-addr-hex> <r|w|i>\n";
}

void
TextTraceWriter::write(const MemAccess &access)
{
    out << formatTraceLine(access) << '\n';
    ++count;
}

void
TextTraceWriter::close()
{
    if (out.is_open()) {
        out.flush();
        // Stream failbits are sticky, so one check here surfaces any
        // buffered write failure (ENOSPC, closed pipe) of the run.
        if (!out)
            throw std::runtime_error("write failure on trace: " + file);
        out.close();
    }
}

// --- binary format -----------------------------------------------------------

BinaryTraceReader::BinaryTraceReader(const std::string &path,
                                     TraceReadOptions options)
    : file(path), opts(options), in(path, std::ios::binary)
{
    if (!in.is_open())
        throw std::runtime_error("cannot open trace: " + path);

    char header[binaryHeaderBytes] = {};
    in.read(header, sizeof header);
    if (in.gcount() != static_cast<std::streamsize>(sizeof header) ||
        !std::equal(binaryMagic, binaryMagic + sizeof binaryMagic, header))
        throw std::runtime_error(path +
                                 ": not a binary trace (bad magic)");
    const auto version = static_cast<std::uint8_t>(header[4]);
    if (version != binaryVersion)
        throw std::runtime_error(
            path + ": unsupported binary trace version " +
            std::to_string(version) + " (expected " +
            std::to_string(binaryVersion) + ")");
    block.resize(std::size_t{64} * 1024);
    fill();
}

bool
BinaryTraceReader::refillBlock()
{
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    blockLen = static_cast<std::size_t>(in.gcount());
    blockPos = 0;
    return blockLen != 0;
}

void
BinaryTraceReader::corrupt(const std::string &what)
{
    error = file + ": byte " + std::to_string(offset) + ": " + what;
    throw std::runtime_error(error);
}

bool
BinaryTraceReader::readVarint(std::uint64_t &value)
{
    value = 0;
    unsigned shift = 0;
    for (;;) {
        const int byte = nextByte();
        if (byte == std::char_traits<char>::eof()) {
            if (shift == 0)
                return false;
            corrupt("truncated record (EOF mid-varint)");
        }
        ++offset;
        if (shift >= 64)
            corrupt("over-long varint (more than 10 bytes)");
        // The 10th byte can only contribute bit 63: any higher payload
        // bit (or a continuation bit) is a non-canonical encoding that
        // would silently lose value bits — reject it as corruption.
        if (shift == 63 && (byte & 0xfe) != 0)
            corrupt("over-long varint (non-canonical final byte)");
        value |= (std::uint64_t{static_cast<unsigned>(byte)} & 0x7f)
                 << shift;
        if ((byte & 0x80) == 0)
            return true;
        shift += 7;
    }
}

void
BinaryTraceReader::fill()
{
    hasBuffered = false;
    for (;;) {
        std::uint64_t header = 0;
        if (!readVarint(header))
            return; // clean EOF at a record boundary
        std::uint64_t encoded_delta = 0;
        if (!readVarint(encoded_delta))
            corrupt("truncated record (missing address delta)");
        prevAddr += zigzagDecode(encoded_delta);

        const std::uint64_t op = header & 3;
        const std::uint64_t core = header >> 2;
        if (op > opIfetch)
            corrupt("bad operation code " + std::to_string(op));
        if (core > std::numeric_limits<CoreId>::max())
            corrupt("core id " + std::to_string(core) +
                    " overflows CoreId");
        // Out-of-range cores and the reserved address are data errors,
        // not framing errors: the stream stays in sync, so tolerant
        // readers may skip.
        std::string why;
        if (opts.maxCores != 0 && core >= opts.maxCores)
            why = "core id " + std::to_string(core) +
                  " out of range (trace limited to " +
                  std::to_string(opts.maxCores) + " cores)";
        else if (prevAddr == kVacantTag)
            why = kReservedAddrReason;
        if (!why.empty()) {
            ++malformed;
            error = file + ": byte " + std::to_string(offset) + ": " + why;
            if (opts.strict)
                throw std::runtime_error(error);
            continue;
        }

        buffered.core = static_cast<CoreId>(core);
        buffered.addr = prevAddr;
        buffered.write = op == opWrite;
        buffered.instruction = op == opIfetch;
        hasBuffered = true;
        return;
    }
}

MemAccess
BinaryTraceReader::next()
{
    if (!hasBuffered)
        throw std::runtime_error("trace exhausted: " + file);
    const MemAccess result = buffered;
    ++count;
    fill();
    return result;
}

BinaryTraceWriter::BinaryTraceWriter(const std::string &path)
    : file(path), out(path, std::ios::binary)
{
    if (!out.is_open())
        throw std::runtime_error("cannot create trace: " + path);
    char header[binaryHeaderBytes] = {};
    std::copy(binaryMagic, binaryMagic + sizeof binaryMagic, header);
    header[4] = static_cast<char>(binaryVersion);
    out.write(header, sizeof header);
}

void
BinaryTraceWriter::writeVarint(std::uint64_t value)
{
    do {
        std::uint8_t byte = value & 0x7f;
        value >>= 7;
        if (value != 0)
            byte |= 0x80;
        out.put(static_cast<char>(byte));
    } while (value != 0);
}

void
BinaryTraceWriter::write(const MemAccess &access)
{
    writeVarint(packHeader(access));
    writeVarint(zigzagEncode(access.addr - prevAddr));
    prevAddr = access.addr;
    ++count;
}

void
BinaryTraceWriter::close()
{
    if (out.is_open()) {
        out.flush();
        if (!out)
            throw std::runtime_error("write failure on trace: " + file);
        out.close();
    }
}

// --- format-agnostic helpers -------------------------------------------------

bool
traceFileIsBinary(const std::string &path)
{
    std::ifstream probe(path, std::ios::binary);
    if (!probe.is_open())
        throw std::runtime_error("cannot open trace: " + path);
    char magic[sizeof binaryMagic] = {};
    probe.read(magic, sizeof magic);
    return probe.gcount() == static_cast<std::streamsize>(sizeof magic) &&
           std::equal(binaryMagic, binaryMagic + sizeof binaryMagic, magic);
}

std::unique_ptr<AccessSource>
makeTraceReader(const std::string &path, TraceReadOptions options)
{
    if (traceFileIsBinary(path))
        return std::make_unique<BinaryTraceReader>(path, options);
    return std::make_unique<TextTraceReader>(path, options);
}

std::unique_ptr<TraceSink>
makeTraceSink(const std::string &path, bool binary)
{
    if (binary)
        return std::make_unique<BinaryTraceWriter>(path);
    return std::make_unique<TextTraceWriter>(path);
}

WorkloadParams
traceWorkloadParams(const std::string &path)
{
    WorkloadParams params;
    params.tracePath = path;
    const std::string stem = std::filesystem::path(path).stem().string();
    params.name = stem.empty() ? path : stem;
    return params;
}

namespace {

/**
 * Cheap recognizer for corpus sweeps: the binary magic, or a text file
 * whose first non-comment line parses as a record. Keeps stray files in
 * a trace directory (READMEs, checksums) out of the workload axis.
 */
bool
looksLikeTrace(const std::string &path)
{
    try {
        if (traceFileIsBinary(path))
            return true;
    } catch (const std::runtime_error &) {
        return false; // unreadable: not sweepable
    }
    std::ifstream in(path);
    if (!in.is_open())
        return false;
    std::string line;
    MemAccess scratch;
    for (std::size_t scanned = 0; scanned < 64 && std::getline(in, line);
         ++scanned) {
        const std::size_t begin = line.find_first_not_of(" \t");
        if (begin == std::string::npos || line[begin] == '#')
            continue;
        return parseTraceLine(line, scratch);
    }
    return false; // comments/blank only: no evidence of records
}

} // namespace

std::vector<std::string>
listTraceFiles(const std::string &path)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    if (fs::is_directory(path)) {
        for (const fs::directory_entry &entry : fs::directory_iterator(path))
            if (entry.is_regular_file() &&
                looksLikeTrace(entry.path().string()))
                files.push_back(entry.path().string());
        std::sort(files.begin(), files.end());
    } else if (fs::is_regular_file(path)) {
        // An explicitly named file is never second-guessed; format
        // errors surface through the reader with full diagnostics.
        files.push_back(path);
    }
    if (files.empty())
        throw std::runtime_error("no trace files at: " + path);
    return files;
}

} // namespace cdir
