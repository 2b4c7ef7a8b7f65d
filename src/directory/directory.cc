#include "directory/directory.hh"

#include <sstream>
#include <stdexcept>

#include "directory/assoc_directory.hh"
#include "directory/cuckoo_directory.hh"
#include "directory/duplicate_tag_directory.hh"
#include "directory/tagless_directory.hh"

namespace cdir {

namespace {

/** One row of the organization table. */
struct Organization
{
    std::string_view name;
    DirectoryTraits traits;
    std::unique_ptr<Directory> (*build)(const DirectoryParams &);
};

/** An AssocDirectory row: @p K picks the name and miss path. */
template <AssocDirectory::Kind K>
std::unique_ptr<Directory>
buildAssoc(const DirectoryParams &p)
{
    return std::make_unique<AssocDirectory>(K, p);
}

/**
 * The seven organizations the paper compares (§3, §6), sorted by name:
 * harnesses that enumerate them emit rows and columns in this order.
 */
constexpr Organization kOrganizations[] = {
    {"Cuckoo", {.usesBucketSlots = true},
     [](const DirectoryParams &p) -> std::unique_ptr<Directory> {
         return std::make_unique<CuckooDirectory>(
             p.numCaches, p.ways, p.sets, p.format, p.hash, p.maxAttempts,
             p.hashSeed, p.bucketSlots, p.stashEntries);
     }},
    {"DuplicateTag", {.mirrorsTrackedCaches = true},
     [](const DirectoryParams &p) -> std::unique_ptr<Directory> {
         return std::make_unique<DuplicateTagDirectory>(
             p.numCaches, p.sets, p.trackedCacheAssoc);
     }},
    {"Elbow", {}, buildAssoc<AssocDirectory::Kind::Elbow>},
    {"InCache", {}, buildAssoc<AssocDirectory::Kind::InCache>},
    {"Skewed", {}, buildAssoc<AssocDirectory::Kind::Skewed>},
    {"Sparse", {}, buildAssoc<AssocDirectory::Kind::Sparse>},
    {"Tagless", {.mirrorsTrackedCaches = true},
     [](const DirectoryParams &p) -> std::unique_ptr<Directory> {
         return std::make_unique<TaglessDirectory>(
             p.numCaches, p.sets, p.taglessBucketBits, 2, p.hashSeed);
     }},
};

constexpr bool
namesSortedAndUnique()
{
    for (std::size_t i = 1; i < std::size(kOrganizations); ++i)
        if (!(kOrganizations[i - 1].name < kOrganizations[i].name))
            return false;
    return true;
}
static_assert(namesSortedAndUnique(),
              "organization names must be sorted and unique");

const Organization &
lookup(std::string_view name)
{
    for (const Organization &org : kOrganizations)
        if (org.name == name)
            return org;
    std::ostringstream os;
    os << "unknown directory organization '" << name
       << "'; known organizations:";
    for (const Organization &org : kOrganizations)
        os << " " << org.name;
    throw std::invalid_argument(os.str());
}

} // namespace

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
        recordWriteTargets(request, targets, out);
        store.assign(set, request.cache);
    } else {
        store.add(set, request.cache);
        ++statistics.sharerAdds;
    }
}

std::size_t
DirectoryParams::totalEntries() const
{
    // Throws for an unknown organization, failing fast like
    // makeDirectory and CmpSystem.
    const bool bucketized = directoryTraits(organization).usesBucketSlots;
    return std::size_t{ways} * sets * (bucketized ? bucketSlots : 1);
}

std::vector<std::string>
directoryOrganizations()
{
    std::vector<std::string> names;
    for (const Organization &org : kOrganizations)
        names.emplace_back(org.name);
    return names;
}

const DirectoryTraits &
directoryTraits(std::string_view name)
{
    return lookup(name).traits;
}

std::unique_ptr<Directory>
makeDirectory(const DirectoryParams &p)
{
    return lookup(p.organization).build(p);
}

} // namespace cdir
