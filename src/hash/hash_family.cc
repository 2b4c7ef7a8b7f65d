#include "hash/hash_family.hh"

#include <stdexcept>
#include <string>

#include "common/bit_util.hh"
#include "hash/skewing_hash.hh"
#include "hash/strong_hash.hh"

namespace cdir {

unsigned
checkedProbeWays(unsigned ways, unsigned min_ways)
{
    if (ways < min_ways || ways > kMaxProbeWays)
        throw std::invalid_argument(
            "directory ways must be in " + std::to_string(min_ways) + ".." +
            std::to_string(kMaxProbeWays) + " (got " +
            std::to_string(ways) + ")");
    return ways;
}

std::unique_ptr<HashFamily>
makeHashFamily(HashKind kind, unsigned num_ways, std::size_t sets_per_way,
               std::uint64_t seed)
{
    // Every family masks its index, so the set count is a power of two;
    // the skewing family's LFSRs span widths 2..24 only.
    const bool skewing = kind == HashKind::Skewing;
    if (!isPowerOfTwo(sets_per_way) ||
        (skewing && (sets_per_way < 4 || sets_per_way > (1u << 24))))
        throw std::invalid_argument(
            std::string("directory sets must be a power of two") +
            (skewing ? " in 4..16777216" : "") + " (got " +
            std::to_string(sets_per_way) + ")");
    switch (kind) {
      case HashKind::Skewing:
        return std::make_unique<SkewingHashFamily>(num_ways, sets_per_way);
      case HashKind::Strong:
        return std::make_unique<StrongHashFamily>(num_ways, sets_per_way,
                                                  seed);
      case HashKind::Modulo:
        return std::make_unique<ModuloHashFamily>(num_ways, sets_per_way);
    }
    return nullptr;
}

} // namespace cdir
