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

#include <cstdint>
#include <cstddef>

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

} // namespace cdir

#endif // CDIR_COMMON_TYPES_HH
