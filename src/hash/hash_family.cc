#include "hash/hash_family.hh"

#include <stdexcept>
#include <string>

#include "hash/skewing_hash.hh"
#include "hash/strong_hash.hh"

namespace cdir {

unsigned
checkedProbeWays(unsigned ways)
{
    if (ways < 1 || ways > kMaxProbeWays)
        throw std::invalid_argument(
            "directory ways must be in 1.." + std::to_string(kMaxProbeWays) +
            " (got " + std::to_string(ways) + ")");
    return ways;
}

std::unique_ptr<HashFamily>
makeHashFamily(HashKind kind, unsigned num_ways, std::size_t sets_per_way,
               std::uint64_t seed)
{
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
