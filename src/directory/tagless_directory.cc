#include "directory/tagless_directory.hh"

#include <bit>
#include <cassert>
#include <sstream>
#include <utility>

#include "common/bit_util.hh"
#include "common/rng.hh"
#include "hash/strong_hash.hh"

namespace cdir {

// --- TagSharerMap ----------------------------------------------------------

TagSharerMap::TagSharerMap(std::size_t num_caches,
                           std::size_t initial_capacity)
    : caches(num_caches)
{
    const std::size_t cap =
        std::bit_ceil(initial_capacity < 16 ? 16 : initial_capacity);
    slots.resize(cap);
    // Provision every slot's bitset storage up front so inserting into
    // a never-used slot does not allocate.
    for (Slot &s : slots)
        s.sharers.reinit(caches);
    mask = cap - 1;
}

std::size_t
TagSharerMap::home(Tag tag) const
{
    return static_cast<std::size_t>(
               StrongHashFamily::mix(tag + 0x9e3779b97f4a7c15ULL)) &
           mask;
}

DynamicBitset *
TagSharerMap::find(Tag tag)
{
    for (std::size_t i = home(tag); slots[i].occupied; i = (i + 1) & mask) {
        if (slots[i].tag == tag)
            return &slots[i].sharers;
    }
    return nullptr;
}

const DynamicBitset *
TagSharerMap::find(Tag tag) const
{
    return const_cast<TagSharerMap *>(this)->find(tag);
}

DynamicBitset &
TagSharerMap::insert(Tag tag)
{
    assert(find(tag) == nullptr && "duplicate insert");
    // Grow at 70% load; only then does the table allocate.
    if ((used + 1) * 10 >= slots.size() * 7)
        grow();
    std::size_t i = home(tag);
    while (slots[i].occupied)
        i = (i + 1) & mask;
    slots[i].tag = tag;
    slots[i].occupied = true;
    slots[i].sharers.reinit(caches);
    ++used;
    return slots[i].sharers;
}

void
TagSharerMap::erase(Tag tag)
{
    std::size_t i = home(tag);
    while (true) {
        if (!slots[i].occupied)
            return; // absent
        if (slots[i].tag == tag)
            break;
        i = (i + 1) & mask;
    }
    slots[i].occupied = false;
    --used;
    // Backward-shift deletion: close the probe chain without
    // tombstones. Swapping the bitsets keeps their word storage
    // circulating among the slots, so no allocation ever happens here.
    std::size_t j = i;
    while (true) {
        j = (j + 1) & mask;
        if (!slots[j].occupied)
            return;
        const std::size_t h = home(slots[j].tag);
        if (((j - h) & mask) >= ((j - i) & mask)) {
            slots[i].tag = slots[j].tag;
            std::swap(slots[i].sharers, slots[j].sharers);
            slots[i].occupied = true;
            slots[j].occupied = false;
            i = j;
        }
    }
}

void
TagSharerMap::grow()
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{});
    for (Slot &s : slots)
        s.sharers.reinit(caches);
    mask = slots.size() - 1;
    for (Slot &s : old) {
        if (!s.occupied)
            continue;
        std::size_t i = home(s.tag);
        while (slots[i].occupied)
            i = (i + 1) & mask;
        slots[i].tag = s.tag;
        slots[i].occupied = true;
        std::swap(slots[i].sharers, s.sharers);
    }
}

// --- TaglessDirectory ------------------------------------------------------

TaglessDirectory::TaglessDirectory(std::size_t num_caches,
                                   std::size_t num_sets,
                                   std::size_t bucket_bits,
                                   unsigned num_grids, std::uint64_t seed)
    : Directory(num_caches),
      sets(num_sets),
      bucketBits(bucket_bits),
      grids(num_grids),
      shadow(num_caches),
      scratchHolders(num_caches)
{
    assert(isPowerOfTwo(num_sets));
    assert(isPowerOfTwo(bucket_bits));
    assert(num_grids >= 1);
    indexMask = num_sets - 1;
    bucketMask = bucket_bits - 1;
    Rng rng(seed);
    for (unsigned g = 0; g < grids; ++g)
        hashKeys.push_back(rng.next() | 1);
    counters.assign(std::size_t{grids} * sets * num_caches * bucket_bits,
                    0);
}

std::size_t
TaglessDirectory::bucketIndex(unsigned grid, Tag tag) const
{
    // Hash the tag bits above the set index so rows discriminate within
    // a set.
    return static_cast<std::size_t>(
        StrongHashFamily::mix((tag >> 1) * hashKeys[grid] + grid) &
        bucketMask);
}

std::uint16_t &
TaglessDirectory::counter(unsigned grid, std::size_t set, CacheId cache,
                          std::size_t bucket)
{
    return counters[((std::size_t{grid} * sets + set) * caches + cache) *
                        bucketBits +
                    bucket];
}

const std::uint16_t &
TaglessDirectory::counter(unsigned grid, std::size_t set, CacheId cache,
                          std::size_t bucket) const
{
    return const_cast<TaglessDirectory *>(this)->counter(grid, set, cache,
                                                         bucket);
}

bool
TaglessDirectory::filterMatch(Tag tag, CacheId cache) const
{
    const std::size_t set = setIndex(tag);
    for (unsigned g = 0; g < grids; ++g)
        if (counter(g, set, cache, bucketIndex(g, tag)) == 0)
            return false;
    return true;
}

void
TaglessDirectory::filterAdd(Tag tag, CacheId cache)
{
    const std::size_t set = setIndex(tag);
    for (unsigned g = 0; g < grids; ++g)
        ++counter(g, set, cache, bucketIndex(g, tag));
}

void
TaglessDirectory::filterRemove(Tag tag, CacheId cache)
{
    const std::size_t set = setIndex(tag);
    for (unsigned g = 0; g < grids; ++g) {
        auto &c = counter(g, set, cache, bucketIndex(g, tag));
        assert(c > 0);
        --c;
    }
}

void
TaglessDirectory::access(const DirRequest &request, DirAccessContext &ctx)
{
    DirAccessOutcome &out = beginAccess(ctx);
    const Tag tag = request.tag;
    const CacheId cache = request.cache;

    DynamicBitset *truth = shadow.find(tag);
    const bool tracked = truth != nullptr;

    // Filter column read: superset of sharers.
    DynamicBitset &filter_holders = scratchHolders;
    filter_holders.clear();
    for (CacheId c = 0; c < caches; ++c)
        if (filterMatch(tag, c))
            filter_holders.set(c);

    if (tracked)
        recordHit(out);

    if (request.isWrite) {
        DynamicBitset &targets = ctx.sharerTargets(out);
        targets = filter_holders;
        if (recordWriteTargets(request, targets, out)) {
            // Acks reveal the true holders; clear their filter state.
            if (tracked) {
                targets.forEachSetBit([&](std::size_t c) {
                    if (truth->test(c)) {
                        filterRemove(tag, static_cast<CacheId>(c));
                        truth->reset(c);
                    } else {
                        ++spurious;
                    }
                });
            } else {
                spurious += targets.count();
            }
        }
    }

    // Track the requester's allocation unless it already holds the tag.
    const bool requester_holds = tracked && truth->test(cache);
    if (!requester_holds) {
        if (!tracked)
            truth = &shadow.insert(tag);
        truth->set(cache);
        filterAdd(tag, cache);
        // New tag; adding a cache to a tracked tag is a sharer add.
        out.attempts = 1;
        if (!tracked)
            recordInsertion(out, 1);
        else if (!request.isWrite)
            ++statistics.sharerAdds;
    }
    // An emptied entry disappears from the shadow map.
    if (truth != nullptr && truth->none())
        shadow.erase(tag);
}

void
TaglessDirectory::removeSharer(Tag tag, CacheId cache)
{
    DynamicBitset *truth = shadow.find(tag);
    if (truth == nullptr || !truth->test(cache))
        return;
    ++statistics.sharerRemovals;
    filterRemove(tag, cache);
    truth->reset(cache);
    if (truth->none()) {
        shadow.erase(tag);
        ++statistics.entryFrees;
    }
}

bool
TaglessDirectory::probe(Tag tag, DynamicBitset *sharers) const
{
    if (sharers) {
        sharers->reinit(caches);
        for (CacheId c = 0; c < caches; ++c)
            if (filterMatch(tag, c))
                sharers->set(c);
    }
    return shadow.contains(tag);
}

std::size_t
TaglessDirectory::capacity() const
{
    // Design capacity: the blocks of the mirrored cache sets. The
    // filters themselves have no entry notion.
    return sets * caches;
}

std::string
TaglessDirectory::name() const
{
    std::ostringstream os;
    os << "Tagless-" << grids << "g" << bucketBits << "b x" << sets;
    return os.str();
}

} // namespace cdir
