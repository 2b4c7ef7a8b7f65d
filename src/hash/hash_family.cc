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
    // Every family masks its index, so the set count is a power of two.
    // The skewing family's 2^24 ceiling bounds every kind: a slice
    // allocates ways x sets slots before its first access.
    const std::size_t min_sets = kind == HashKind::Skewing ? 4 : 1;
    if (!isPowerOfTwo(sets_per_way) || sets_per_way < min_sets ||
        sets_per_way > kMaxDirectorySets)
        throw std::invalid_argument(
            "directory sets must be a power of two in " +
            std::to_string(min_sets) + ".." +
            std::to_string(kMaxDirectorySets) + " (got " +
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
