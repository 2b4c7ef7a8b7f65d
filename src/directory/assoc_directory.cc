#include "directory/assoc_directory.hh"

#include <cassert>
#include <sstream>

#include "common/bit_util.hh"

namespace cdir {

namespace {

/** Indexing of a @p kind slice under @p params (see Kind). */
HashKind
hashOf(AssocDirectory::Kind kind, const DirectoryParams &params)
{
    switch (kind) {
      case AssocDirectory::Kind::Skewed:
        return params.hash == HashKind::Modulo ? HashKind::Skewing
                                               : params.hash;
      case AssocDirectory::Kind::Elbow:
        return HashKind::Skewing;
      case AssocDirectory::Kind::Sparse:
      case AssocDirectory::Kind::InCache:
        break;
    }
    return HashKind::Modulo;
}

} // namespace

AssocDirectory::AssocDirectory(Kind slice_kind, const DirectoryParams &p)
    : Directory(p.numCaches),
      sharers(slice_kind == Kind::InCache ? SharerFormat::FullVector
                                          : p.format,
              p.numCaches),
      kind(slice_kind),
      family(makeHashFamily(hashOf(slice_kind, p),
                            checkedProbeWays(p.ways), p.sets, p.hashSeed)),
      ways(p.ways),
      sets(p.sets),
      setMajor(hashOf(slice_kind, p) == HashKind::Modulo),
      tags(std::size_t{p.ways} * p.sets, kVacantTag),
      lastUses(std::size_t{p.ways} * p.sets, 0),
      sharerSets(std::size_t{p.ways} * p.sets)
{
}

std::size_t
AssocDirectory::findPosOf(Tag tag) const
{
    std::size_t idx[kMaxProbeWays];
    family->indexAll(tag, idx);
    return findPosWithIdx(tag, idx);
}

std::size_t
AssocDirectory::findPosWithIdx(Tag tag, const std::size_t *idx) const
{
    if (setMajor) {
        // All ways share the set: the candidates are one contiguous run,
        // reduced by a single kernel call with no gather.
        const std::size_t base = idx[0] * ways;
        const std::size_t hit = findTag(&tags[base], ways, tag);
        return hit == ways ? npos : base + hit;
    }
    // Skewed ways: gather the scattered candidates, then reduce.
    Tag cand[kMaxProbeWays];
    for (unsigned w = 0; w < ways; ++w)
        cand[w] = tags[pos(w, idx[w])];
    const std::size_t hit = findTag(cand, ways, tag);
    return hit == ways ? npos : pos(static_cast<unsigned>(hit), idx[hit]);
}

void
AssocDirectory::access(const DirRequest &request, DirAccessContext &ctx)
{
    DirAccessOutcome &out = beginAccess(ctx);
    ++useClock;

    std::size_t idx[kMaxProbeWays];
    family->indexAll(request.tag, idx);

    const std::size_t found = findPosWithIdx(request.tag, idx);
    if (found != npos) {
        recordHit(out);
        lastUses[found] = useClock;
        updateEntryOnHit(sharers, sharerSets[found], request, ctx, out);
        return;
    }

    // Miss: pick a vacant candidate or evict the LRU candidate. This is
    // the set conflict the Cuckoo organization eliminates: the victim's
    // cached copies must be invalidated to keep the directory precise.
    // The first vacant way wins; otherwise the strictly-smallest lastUse
    // in way order — identical victim choice to the AoS walk.
    std::size_t victim = npos;
    if (setMajor) {
        const std::size_t base = idx[0] * ways;
        const std::size_t vacant = cdir::findVacant(&tags[base], ways);
        if (vacant != ways) {
            victim = base + vacant;
        } else {
            victim = base;
            for (unsigned w = 1; w < ways; ++w)
                if (lastUses[base + w] < lastUses[victim])
                    victim = base + w;
        }
    } else {
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t p = pos(w, idx[w]);
            if (tags[p] == kVacantTag) {
                victim = p;
                break;
            }
            if (victim == npos || lastUses[p] < lastUses[victim])
                victim = p;
        }
        if (kind == Kind::Elbow && tags[victim] != kVacantTag) {
            const std::size_t freed = relocateOne(idx);
            if (freed != npos) {
                ++occupied;
                fill(freed, request, out, 2); // plus the relocation write
                return;
            }
        }
    }
    assert(victim != npos);

    if (tags[victim] != kVacantTag) {
        recordForcedEviction(ctx, out, tags[victim],
                             [&](DynamicBitset &targets) {
                                 sharers.invalidationTargets(
                                     sharerSets[victim], targets);
                             });
        sharers.clear(sharerSets[victim]);
    } else {
        ++occupied;
    }

    fill(victim, request, out, 1);
}

inline void
AssocDirectory::fill(std::size_t p, const DirRequest &request,
                     DirAccessOutcome &out, unsigned attempts)
{
    tags[p] = request.tag;
    sharers.add(sharerSets[p], request.cache);
    lastUses[p] = useClock;
    recordInsertion(out, attempts);
}

std::size_t
AssocDirectory::relocateOne(const std::size_t *idx)
{
    std::size_t alt_idx[kMaxProbeWays];
    for (unsigned w = 0; w < ways; ++w) {
        const std::size_t occ = pos(w, idx[w]);
        family->indexAll(tags[occ], alt_idx);
        for (unsigned alt = 0; alt < ways; ++alt) {
            const std::size_t target = pos(alt, alt_idx[alt]);
            if (alt == w || tags[target] != kVacantTag)
                continue;
            tags[target] = tags[occ];
            sharerSets[target] = sharerSets[occ];
            sharerSets[occ] = SharerSet{};
            lastUses[target] = lastUses[occ];
            tags[occ] = kVacantTag;
            return occ;
        }
    }
    return npos;
}

void
AssocDirectory::removeSharer(Tag tag, CacheId cache)
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
AssocDirectory::probe(Tag tag, DynamicBitset *sharer_targets) const
{
    const std::size_t p = findPosOf(tag);
    if (p == npos)
        return false;
    if (sharer_targets)
        sharers.invalidationTargets(sharerSets[p], *sharer_targets);
    return true;
}

std::string
AssocDirectory::name() const
{
    static constexpr const char *kNames[] = {"Sparse", "Skewed", "Elbow",
                                             "InCache"};
    std::ostringstream os;
    os << kNames[static_cast<unsigned>(kind)] << "-" << ways << "x" << sets;
    return os.str();
}

} // namespace cdir
