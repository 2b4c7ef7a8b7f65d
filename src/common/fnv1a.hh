/**
 * @file
 * FNV-1a, the repository's one content hash: campaign cell ids and test
 * document pins hash bytes, feedback and reference digests fold 64-bit
 * words. Both forms share the offset basis and prime, so a digest
 * depends only on the bytes it covers.
 */

#ifndef CDIR_COMMON_FNV1A_HH
#define CDIR_COMMON_FNV1A_HH

#include <cstdint>
#include <string_view>

namespace cdir {

/** The FNV-1a 64-bit offset basis: the hash of no bytes. */
constexpr std::uint64_t
fnv1aInit()
{
    return 14695981039346656037ull;
}

/** Fold @p bytes into an FNV-1a accumulator (seed with fnv1aInit()). */
constexpr std::uint64_t
fnv1a(std::uint64_t hash, std::string_view bytes)
{
    for (const char ch : bytes) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Fold @p value's 8 bytes, least significant first, into @p hash. */
constexpr std::uint64_t
fnv1aMix(std::uint64_t hash, std::uint64_t value)
{
    for (unsigned byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace cdir

#endif // CDIR_COMMON_FNV1A_HH
