#include "directory/duplicate_tag_directory.hh"

#include <cassert>
#include <sstream>

#include "common/bit_util.hh"

namespace cdir {

DuplicateTagDirectory::DuplicateTagDirectory(std::size_t num_caches,
                                             std::size_t num_sets,
                                             unsigned cache_assoc)
    : Directory(num_caches),
      sets(num_sets),
      cacheAssoc(cache_assoc),
      scratchHolders(num_caches)
{
    assert(isPowerOfTwo(num_sets));
    assert(cache_assoc >= 1);
    indexMask = num_sets - 1;
    const std::size_t width = num_caches * cache_assoc;
    chunksPerSet = (width + kKernelWidth - 1) / kKernelWidth;
    const std::size_t total = num_sets * width;
    tags.assign(total, kVacantTag);
    lastUses.assign(total, 0);
    chunkValid.assign(num_sets * chunksPerSet, 0);
}

void
DuplicateTagDirectory::collectHolders(std::size_t set, Tag tag,
                                      DynamicBitset &holders) const
{
    const std::size_t base = regionBase(set, 0);
    const std::size_t width = std::size_t{caches} * cacheAssoc;
    // The whole set is one contiguous run; reduce it in
    // 64-frame chunks and map each match bit back to its cache id. A
    // chunk with no occupied frames cannot match — the occupancy summary
    // lets sparse sets skip it without reading 64 tag lanes.
    for (std::size_t chunk = 0; chunk < width; chunk += kKernelWidth) {
        if (chunkValid[chunkIndex(set, chunk)] == 0)
            continue;
        const std::size_t n = std::min(kKernelWidth, width - chunk);
        std::uint64_t mask =
            tagMatchMask(&tags[base + chunk], n, tag);
        while (mask != 0) {
            const auto bit =
                static_cast<std::size_t>(std::countr_zero(mask));
            holders.set((chunk + bit) / cacheAssoc);
            mask &= mask - 1;
        }
    }
}

void
DuplicateTagDirectory::access(const DirRequest &request,
                              DirAccessContext &ctx)
{
    DirAccessOutcome &out = beginAccess(ctx);
    ++useClock;
    const Tag tag = request.tag;
    const std::size_t set = setIndex(tag);

    // Wide associative compare: find every cache holding the tag.
    DynamicBitset &holders = scratchHolders;
    holders.clear();
    collectHolders(set, tag, holders);

    if (holders.any())
        recordHit(out);

    if (request.isWrite) {
        DynamicBitset &targets = ctx.sharerTargets(out);
        targets = holders;
        if (recordWriteTargets(request, targets, out)) {
            // The invalidated caches' mirrored tags are cleared: the
            // duplicate tags always reflect the private caches.
            targets.forEachSetBit([&](std::size_t c) {
                const std::size_t rb =
                    regionBase(set, static_cast<CacheId>(c));
                for (unsigned w = 0; w < cacheAssoc; ++w) {
                    if (tags[rb + w] == tag) {
                        tags[rb + w] = kVacantTag;
                        noteValidChange(rb + w, false);
                        --occupied;
                    }
                }
            });
        }
    }

    // Mirror the requester's allocation unless it already holds the tag
    // (a write upgrade of a Shared copy).
    if (!holders.test(request.cache)) {
        const std::size_t rb = regionBase(set, request.cache);
        std::size_t dest = rb;
        bool destValid = tags[rb] != kVacantTag;
        for (unsigned w = 0; w < cacheAssoc; ++w) {
            if (tags[rb + w] == kVacantTag) {
                dest = rb + w;
                destValid = false;
                break;
            }
            if (lastUses[rb + w] < lastUses[dest]) {
                dest = rb + w;
                destValid = true;
            }
        }
        if (destValid) {
            // Only reachable if the caller failed to report the cache's
            // own eviction first; mirror the cache by evicting LRU.
            recordForcedEviction(
                ctx, out, tags[dest],
                [&](DynamicBitset &targets) { targets.set(request.cache); });
            --occupied;
        }
        tags[dest] = tag;
        // An eviction reuses a valid frame, so the chunk count only
        // moves when a vacant frame fills.
        if (!destValid)
            noteValidChange(dest, true);
        lastUses[dest] = useClock;
        ++occupied;

        // A new tag entered the directory; mirroring an additional
        // cache's copy of an already-tracked tag is a sharer add.
        out.attempts = 1;
        if (!out.hit)
            recordInsertion(out, 1);
        else if (!request.isWrite)
            ++statistics.sharerAdds;
    }
}

void
DuplicateTagDirectory::removeSharer(Tag tag, CacheId cache)
{
    assert(cache < caches);
    const std::size_t rb = regionBase(setIndex(tag), cache);
    const std::size_t w = findTag(&tags[rb], cacheAssoc, tag);
    if (w != cacheAssoc) {
        tags[rb + w] = kVacantTag;
        noteValidChange(rb + w, false);
        --occupied;
        ++statistics.sharerRemovals;
    }
}

bool
DuplicateTagDirectory::probe(Tag tag, DynamicBitset *sharers) const
{
    const std::size_t set = setIndex(tag);
    if (sharers) {
        sharers->reinit(caches);
        collectHolders(set, tag, *sharers);
        return sharers->any();
    }
    // Existence-only probe: scan the contiguous set run, stopping at the
    // first matching chunk. Chunks with no occupied frames cannot match
    // and are skipped outright (outcome-invariant: an all-vacant run
    // returns "absent" either way).
    const std::size_t base = regionBase(set, 0);
    const std::size_t width = std::size_t{caches} * cacheAssoc;
    for (std::size_t chunk = 0; chunk < width; chunk += kKernelWidth) {
        if (chunkValid[chunkIndex(set, chunk)] == 0)
            continue;
        const std::size_t n = std::min(kKernelWidth, width - chunk);
        if (findTag(&tags[base + chunk], n, tag) != n)
            return true;
    }
    return false;
}

std::string
DuplicateTagDirectory::name() const
{
    std::ostringstream os;
    os << "DuplicateTag-" << lookupWidth() << "x" << sets;
    return os.str();
}

} // namespace cdir
