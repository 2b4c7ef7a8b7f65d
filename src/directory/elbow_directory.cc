#include "directory/elbow_directory.hh"

#include <cassert>
#include <sstream>

#include "common/bit_util.hh"
#include "directory/registry.hh"

namespace cdir {

CDIR_REGISTER_DIRECTORY(elbow, "Elbow", DirectoryTraits{},
                        [](const DirectoryParams &p) {
                            return std::make_unique<ElbowDirectory>(
                                p.numCaches, p.ways, p.sets, p.format,
                                p.hashSeed);
                        });

ElbowDirectory::ElbowDirectory(std::size_t num_caches, unsigned num_ways,
                               std::size_t num_sets, SharerFormat fmt,
                               std::uint64_t hash_seed)
    : Directory(num_caches),
      sharers(fmt, num_caches),
      family(makeHashFamily(HashKind::Skewing, num_ways, num_sets,
                            hash_seed)),
      ways(num_ways),
      sets(num_sets),
      tags(std::size_t{num_ways} * num_sets, kVacantTag),
      lastUses(std::size_t{num_ways} * num_sets, 0),
      sharerSets(std::size_t{num_ways} * num_sets)
{
    assert(num_ways >= 1 && num_ways <= kMaxProbeWays);
}

std::size_t
ElbowDirectory::findPosOf(Tag tag) const
{
    std::size_t idx[kMaxProbeWays];
    family->indexAll(tag, idx);
    return findPosWithIdx(tag, idx);
}

std::size_t
ElbowDirectory::findPosWithIdx(Tag tag, const std::size_t *idx) const
{
    Tag cand[kMaxProbeWays];
    for (unsigned w = 0; w < ways; ++w)
        cand[w] = tags[pos(w, idx[w])];
    const std::size_t hit = findTag(cand, ways, tag);
    return hit == ways ? npos : pos(static_cast<unsigned>(hit), idx[hit]);
}

void
ElbowDirectory::access(const DirRequest &request, DirAccessContext &ctx)
{
    DirAccessOutcome &out = ctx.beginOutcome();
    ++statistics.lookups;
    ++useClock;

    std::size_t idx[kMaxProbeWays];
    family->indexAll(request.tag, idx);

    const std::size_t found = findPosWithIdx(request.tag, idx);
    if (found != npos) {
        out.hit = true;
        ++statistics.hits;
        lastUses[found] = useClock;
        updateEntryOnHit(sharers, sharerSets[found], request, ctx, out);
        return;
    }

    // Miss: take a vacant candidate if one exists.
    std::size_t dest = npos;
    unsigned attempts = 1;
    for (unsigned w = 0; w < ways; ++w) {
        const std::size_t p = pos(w, idx[w]);
        if (tags[p] == kVacantTag) {
            dest = p;
            break;
        }
    }

    if (dest == npos) {
        // One elbow move: relocate the first candidate occupant whose
        // alternate slot in another way is vacant (requires the extra
        // candidate lookups the paper charges this design for).
        std::size_t altIdx[kMaxProbeWays];
        for (unsigned w = 0; w < ways && dest == npos; ++w) {
            const std::size_t occ = pos(w, idx[w]);
            family->indexAll(tags[occ], altIdx);
            for (unsigned alt = 0; alt < ways; ++alt) {
                if (alt == w)
                    continue;
                const std::size_t target = pos(alt, altIdx[alt]);
                if (tags[target] == kVacantTag) {
                    tags[target] = tags[occ];
                    sharerSets[target] = sharerSets[occ];
                    sharerSets[occ] = SharerSet{};
                    lastUses[target] = lastUses[occ];
                    tags[occ] = kVacantTag;
                    dest = occ;
                    ++relocated;
                    attempts = 2; // the relocation write
                    break;
                }
            }
        }
    }

    if (dest == npos) {
        // No single-hop relocation possible: evict the LRU candidate.
        std::size_t victim = npos;
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t p = pos(w, idx[w]);
            if (victim == npos || lastUses[p] < lastUses[victim])
                victim = p;
        }
        assert(victim != npos && tags[victim] != kVacantTag);
        EvictedEntry &evicted = ctx.appendEviction(out);
        evicted.tag = tags[victim];
        sharers.invalidationTargets(sharerSets[victim], evicted.targets);
        ++statistics.forcedEvictions;
        statistics.forcedBlockInvalidations += evicted.targets.count();
        tags[victim] = kVacantTag;
        sharers.clear(sharerSets[victim]);
        --occupied;
        dest = victim;
    }

    tags[dest] = request.tag;
    sharers.add(sharerSets[dest], request.cache);
    lastUses[dest] = useClock;
    ++occupied;

    out.inserted = true;
    out.attempts = attempts;
    ++statistics.insertions;
    statistics.insertionAttempts.add(attempts);
    statistics.attemptHistogram.add(attempts);
}

void
ElbowDirectory::removeSharer(Tag tag, CacheId cache)
{
    const std::size_t p = findPosOf(tag);
    if (p == npos)
        return;
    ++statistics.sharerRemovals;
    if (sharers.remove(sharerSets[p], cache)) {
        tags[p] = kVacantTag;
        --occupied;
        ++statistics.entryFrees;
    }
}

bool
ElbowDirectory::probe(Tag tag, DynamicBitset *sharer_targets) const
{
    const std::size_t p = findPosOf(tag);
    if (p == npos)
        return false;
    if (sharer_targets)
        sharers.invalidationTargets(sharerSets[p], *sharer_targets);
    return true;
}

std::string
ElbowDirectory::name() const
{
    std::ostringstream os;
    os << "Elbow-" << ways << "x" << sets;
    return os.str();
}

} // namespace cdir
