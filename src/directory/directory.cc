#include "directory/directory.hh"

#include "directory/registry.hh"

namespace cdir {

void
Directory::accessBatch(std::span<const DirRequest> requests,
                       DirAccessContext &ctx)
{
    for (const DirRequest &request : requests)
        access(request, ctx);
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
