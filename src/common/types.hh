/**
 * @file
 * Fundamental type definitions shared by every library in the Cuckoo
 * directory reproduction.
 *
 * The paper models a 48-bit physical address space with 64-byte blocks
 * (Table 1); all structures in this repository index *block* addresses,
 * i.e. the byte address with the block-offset bits stripped.
 */

#ifndef CDIR_COMMON_TYPES_HH
#define CDIR_COMMON_TYPES_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <optional>
#include <string_view>

namespace cdir {

/** Physical byte address (48 bits used, per Table 1). */
using Addr = std::uint64_t;

/** Block address: byte address >> log2(blockSize). */
using BlockAddr = std::uint64_t;

/** Directory tag: block address (possibly further truncated by an index). */
using Tag = std::uint64_t;

/**
 * Reserved tag marking an empty slot in every tag lane (private-cache
 * frames and every directory organization that stores tags). A probe
 * then compares tag words only, with no separate valid lane. The value
 * is also reserved as a block address: trace readers reject it, and the
 * workload generators never come near it.
 */
inline constexpr Tag kVacantTag = ~Tag{0};

/** Identifier of a private cache (one per core, or two for I+D splits). */
using CacheId = std::uint32_t;

/** Identifier of a core. */
using CoreId = std::uint32_t;

/** Sentinel for "no cache". */
inline constexpr CacheId invalidCacheId = ~CacheId{0};

/** Cache-block size in bytes used throughout the paper (Table 1). */
inline constexpr std::size_t blockBytes = 64;

/** Physical address width in bits (Table 1). */
inline constexpr unsigned physAddrBits = 48;

/**
 * Whole-string parse of an unsigned decimal: the value iff @p text is
 * one or more digits that fit in 64 bits, with no sign, whitespace or
 * trailing characters ("10k", "", "-1" and " 4" are rejected). The one
 * count grammar of every declared setting (countFlag, common/
 * cli_flag.hh: command-line flags, scenario `set`/`burst`/`trace`
 * arguments, fleet / slo-ramp spec knobs), of positionals and of the
 * scenario text's other counts.
 */
inline std::optional<std::uint64_t>
parseCliUnsigned(std::string_view text)
{
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size())
        return std::nullopt;
    return value;
}

/**
 * Whole-string parse of a finite real: the value iff @p text is one
 * decimal or exponent-form number ("0.5", "-2", "1e-3", ".5") with no
 * leading '+', whitespace or trailing characters. "nan", "inf" and
 * out-of-range magnitudes are rejected. The one real grammar of
 * realFlag settings and phase-trigger thresholds.
 */
inline std::optional<double>
parseCliReal(std::string_view text)
{
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size() ||
        !std::isfinite(value))
        return std::nullopt;
    return value;
}

} // namespace cdir

#endif // CDIR_COMMON_TYPES_HH
