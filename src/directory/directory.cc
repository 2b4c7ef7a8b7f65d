#include "directory/directory.hh"

#include "directory/registry.hh"

namespace cdir {

namespace {

/** Lookahead (in requests) accessBatch() prefetches tag lanes by. */
constexpr std::size_t kPrefetchDistance = 8;

} // namespace

void
Directory::accessBatch(std::span<const DirRequest> requests,
                       DirAccessContext &ctx)
{
    // Walk the span in order, hinting the tag lanes of the request
    // kPrefetchDistance slots ahead so the probe's candidate lines are
    // (likely) resident by the time access() reaches them. prefetchTag()
    // is side-effect free, so outcomes are identical to the plain loop.
    const std::size_t n = requests.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchDistance < n)
            prefetchTag(requests[i + kPrefetchDistance].tag);
        access(requests[i], ctx);
    }
}

void
Directory::updateEntryOnHit(SharerStore &store, SharerSet &set,
                            const DirRequest &request, DirAccessContext &ctx,
                            DirAccessOutcome &out)
{
    if (request.isWrite) {
        DynamicBitset &targets = ctx.sharerTargets(out);
        store.invalidationTargets(set, targets);
        if (request.cache < targets.size() && targets.test(request.cache))
            targets.reset(request.cache);
        if (targets.any()) {
            out.hadSharerInvalidations = true;
            ++statistics.writeUpgrades;
        }
        store.assign(set, request.cache);
    } else {
        store.add(set, request.cache);
        ++statistics.sharerAdds;
    }
}

std::size_t
DirectoryParams::totalEntries() const
{
    // traits() throws for an unknown organization, failing fast like
    // every other registry consumer (makeDirectory, CmpSystem).
    const bool bucketized = DirectoryRegistry::instance()
                                .traits(organization)
                                .usesBucketSlots;
    return std::size_t{ways} * sets * (bucketized ? bucketSlots : 1);
}

std::unique_ptr<Directory>
makeDirectory(const DirectoryParams &p)
{
    return DirectoryRegistry::instance().build(p.organization, p);
}

} // namespace cdir
