#include "directory/cuckoo_directory.hh"

#include <cassert>
#include <sstream>

namespace cdir {

CuckooDirectory::CuckooDirectory(std::size_t num_caches, unsigned ways,
                                 std::size_t sets_per_way,
                                 SharerFormat fmt, HashKind hash,
                                 unsigned max_attempts,
                                 std::uint64_t hash_seed,
                                 unsigned bucket_slots,
                                 unsigned stash_entries)
    : Directory(num_caches),
      sharers(fmt, num_caches),
      family(makeHashFamily(hash, checkedProbeWays(ways), sets_per_way,
                            hash_seed)),
      table(*family, max_attempts, bucket_slots),
      stashCapacity(stash_entries)
{
    stash.reserve(stash_entries);
}

CuckooDirectory::StashEntry *
CuckooDirectory::findStash(Tag tag)
{
    for (StashEntry &e : stash)
        if (e.tag == tag)
            return &e;
    return nullptr;
}

const CuckooDirectory::StashEntry *
CuckooDirectory::findStash(Tag tag) const
{
    for (const StashEntry &e : stash)
        if (e.tag == tag)
            return &e;
    return nullptr;
}

void
CuckooDirectory::drainStash()
{
    if (stash.empty())
        return;
    const StashEntry entry = stash.back();
    stash.pop_back();
    auto ins = table.insert(entry.tag, SharerSet(entry.set));
    if (ins.discarded) {
        // No room yet: park the (possibly different) displaced entry.
        assert(ins.discardedPayload.has_value());
        stash.push_back({ins.discardedTag, *ins.discardedPayload});
    }
}

void
CuckooDirectory::access(const DirRequest &request, DirAccessContext &ctx)
{
    DirAccessOutcome &out = beginAccess(ctx);

    // Hash once: the probe and, on a miss, the first insertion attempt
    // use the same way indices.
    std::size_t idx[kMaxProbeWays];
    family->indexAll(request.tag, idx);
    const std::size_t pos = table.findPos(request.tag, idx);
    if (pos != CuckooTable<SharerSet>::npos) {
        recordHit(out);
        updateEntryOnHit(sharers, table.payloadAt(pos), request, ctx, out);
        return;
    }
    if (StashEntry *entry = findStash(request.tag)) {
        recordHit(out);
        updateEntryOnHit(sharers, entry->set, request, ctx, out);
        return;
    }

    // Miss: allocate an entry tracking the requester.
    SharerSet set;
    sharers.add(set, request.cache);
    auto ins = table.insert(request.tag, std::move(set), idx);
    recordInsertion(out, ins.attempts);

    if (ins.discarded) {
        assert(ins.discardedPayload.has_value());
        if (stash.size() < stashCapacity) {
            // Kirsch-style stash extension: park the overflow entry
            // instead of invalidating its blocks.
            stash.push_back({ins.discardedTag, *ins.discardedPayload});
            ++stashAbsorbs;
        } else {
            out.insertDiscarded = true;
            ++statistics.insertFailures;
            recordForcedEviction(ctx, out, ins.discardedTag,
                                 [&](DynamicBitset &targets) {
                                     sharers.invalidationTargets(
                                         *ins.discardedPayload, targets);
                                 });
            sharers.clear(*ins.discardedPayload);
        }
    }
}

void
CuckooDirectory::removeSharer(Tag tag, CacheId cache)
{
    const std::size_t pos = table.findPos(tag);
    if (pos != CuckooTable<SharerSet>::npos) {
        ++statistics.sharerRemovals;
        if (sharers.remove(table.payloadAt(pos), cache)) {
            // One probe serves both the removal and the free: erase at
            // the position the lookup already found instead of
            // re-probing all ways. The emptied set owns no storage.
            table.eraseAt(pos);
            ++statistics.entryFrees;
            // A freed slot is the opportunity to re-home a parked
            // overflow entry.
            drainStash();
        }
        return;
    }
    if (StashEntry *entry = findStash(tag)) {
        ++statistics.sharerRemovals;
        if (sharers.remove(entry->set, cache)) {
            *entry = stash.back();
            stash.pop_back();
            ++statistics.entryFrees;
        }
    }
}

bool
CuckooDirectory::probe(Tag tag, DynamicBitset *sharer_targets) const
{
    const SharerSet *set = table.find(tag);
    if (set == nullptr) {
        const StashEntry *entry = findStash(tag);
        if (entry == nullptr)
            return false;
        set = &entry->set;
    }
    if (sharer_targets)
        sharers.invalidationTargets(*set, *sharer_targets);
    return true;
}

std::size_t
CuckooDirectory::validEntries() const
{
    return table.size() + stash.size();
}

std::size_t
CuckooDirectory::capacity() const
{
    return table.capacity() + stashCapacity;
}

std::string
CuckooDirectory::name() const
{
    std::ostringstream os;
    os << "Cuckoo-" << table.numWays() << "x" << table.setsPerWay();
    if (table.slotsPerBucket() > 1)
        os << "b" << table.slotsPerBucket();
    if (stashCapacity > 0)
        os << "+stash" << stashCapacity;
    return os.str();
}

} // namespace cdir
