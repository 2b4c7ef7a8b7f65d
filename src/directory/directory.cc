#include "directory/directory.hh"

#include <cstdlib>

#include "directory/registry.hh"

namespace cdir {

unsigned
Directory::prefetchDistance()
{
    static const unsigned distance = [] {
        if (const char *env = std::getenv("CDIR_PREFETCH_DIST"))
            return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
        return 8u;
    }();
    return distance;
}

void
Directory::accessBatch(std::span<const DirRequest> requests,
                       DirAccessContext &ctx)
{
    // Walk the span in order, hinting the tag lanes of the request
    // `dist` slots ahead so the probe's candidate lines are (likely)
    // resident by the time access() reaches them. prefetchTag() is
    // side-effect free, so outcomes are identical to the plain loop.
    const std::size_t dist = prefetchDistance();
    const std::size_t n = requests.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (dist != 0 && i + dist < n)
            prefetchTag(requests[i + dist].tag);
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

std::string
DirectoryParams::resolvedOrganization() const
{
    return organization.empty() ? directoryKindName(kind) : organization;
}

std::size_t
DirectoryParams::totalEntries() const
{
    // traits() throws for an unknown organization, failing fast like
    // every other registry consumer (makeDirectory, CmpSystem).
    const bool bucketized = DirectoryRegistry::instance()
                                .traits(resolvedOrganization())
                                .usesBucketSlots;
    return std::size_t{ways} * sets * (bucketized ? bucketSlots : 1);
}

std::unique_ptr<Directory>
makeDirectory(const DirectoryParams &p)
{
    return DirectoryRegistry::instance().build(p.resolvedOrganization(), p);
}

std::string
directoryKindName(DirectoryKind kind)
{
    switch (kind) {
      case DirectoryKind::Cuckoo:
        return "Cuckoo";
      case DirectoryKind::Sparse:
        return "Sparse";
      case DirectoryKind::Skewed:
        return "Skewed";
      case DirectoryKind::DuplicateTag:
        return "DuplicateTag";
      case DirectoryKind::InCache:
        return "InCache";
      case DirectoryKind::Tagless:
        return "Tagless";
      case DirectoryKind::Elbow:
        return "Elbow";
    }
    return "?";
}

} // namespace cdir
