/**
 * @file
 * Generic d-ary Cuckoo hash table — the data structure at the heart of
 * the Cuckoo directory (§4).
 *
 * The table consists of `ways` direct-mapped arrays of `setsPerWay`
 * slots; way w is indexed through hash function w of a HashFamily.
 * Lookup probes all ways in parallel (constant time, like a
 * skewed-associative cache). Insertion follows §4.2 faithfully:
 *
 *  - A lookup always precedes insertion; if it reveals a vacant
 *    candidate slot the insertion succeeds with **1 attempt**.
 *  - Otherwise the new element displaces the occupant of its slot in the
 *    current start way; the displaced element is then re-inserted (its
 *    own candidates are checked for a vacancy first, then it displaces
 *    in the next way), and so on. Every slot write counts as one
 *    attempt.
 *  - A bound (default 32, the paper's choice) terminates pathological
 *    loops: the most recently displaced element is discarded and handed
 *    back to the caller, which must invalidate the private-cache blocks
 *    it tracked.
 *  - To keep the ways uniformly utilized, each insertion starts at the
 *    way at which the previous insertion stopped.
 *
 * Storage is one 64-byte-aligned array of {tag, payload} slots: like
 * the hardware's one SRAM read per way, a probe reads one host line per
 * candidate, and a hit's payload update (the sharer set) lands in the
 * line the compare just read. An empty slot holds kVacantTag, so there
 * is no valid lane. A probe computes all way indices with one
 * HashFamily::indexAll call, gathers the candidate tags, and reduces
 * them with the branchless match-mask kernel — the software analogue of
 * the parallel way comparators the paper's hardware fires. Callers that
 * probe and then insert (a directory miss) compute the indices once and
 * pass them to both findPos() and insert(). Inside a CmpSystem the slot
 * array is carved from the system's huge-page arena (common/arena.hh),
 * so the d random lines of a probe seldom miss the TLB.
 *
 * The payload type only needs to be movable and default-constructible.
 */

#ifndef CDIR_DIRECTORY_CUCKOO_TABLE_HH
#define CDIR_DIRECTORY_CUCKOO_TABLE_HH

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bit_util.hh"
#include "common/bitset.hh"
#include "common/types.hh"
#include "hash/hash_family.hh"

namespace cdir {

/** d-ary Cuckoo hash table (see file comment). */
template <typename Payload>
class CuckooTable
{
  public:
    /** Sentinel position for "not found". */
    static constexpr std::size_t npos = ~std::size_t{0};

    /** One table entry: the tag (kVacantTag when empty) and its payload. */
    struct Slot
    {
        Tag tag = kVacantTag;
        Payload payload{};
    };

    /** Result of an insert() call. */
    struct InsertResult
    {
        /** Slot writes performed (1 = immediate success). */
        unsigned attempts = 0;
        /** Set when the attempt bound was hit and an element dropped. */
        bool discarded = false;
        Tag discardedTag = 0;
        std::optional<Payload> discardedPayload;
    };

    /**
     * @param family       per-way hash family; must outlive the table.
     * @param max_attempts insertion bound (paper: 32).
     * @param bucket_slots elements per (way, set) bucket. 1 is the
     *        paper's design; >1 implements Panigrahy's bucketized
     *        variant [30], which §6 notes "may offer additional
     *        improvement ... at high directory occupancy".
     * @throws std::invalid_argument unless @p family has 2 to
     *         kMaxProbeWays ways.
     */
    CuckooTable(const HashFamily &family, unsigned max_attempts = 32,
                unsigned bucket_slots = 1)
        : hashes(family),
          ways(checkedProbeWays(family.numWays(), 2)),
          sets(family.setsPerWay()),
          maxAttempts(max_attempts),
          bucketSlots(bucket_slots),
          slots(std::size_t{ways} * sets * bucket_slots)
    {
        assert(max_attempts >= 1);
        assert(bucket_slots >= 1 && bucket_slots <= kKernelWidth);
    }

    /** Position of @p tag, or npos. */
    std::size_t
    findPos(Tag tag) const
    {
        std::size_t idx[kMaxProbeWays];
        hashes.indexAll(tag, idx);
        return findPos(tag, idx);
    }

    /**
     * Position of @p tag given its way indices @p idx (the table's
     * HashFamily::indexAll of @p tag), or npos. The match-mask kernel
     * reduces the gathered candidate tags (probe order way-major, bucket
     * slots in order — identical to the scalar walk).
     */
    std::size_t
    findPos(Tag tag, const std::size_t *idx) const
    {
        if (bucketSlots == 1) {
            // Common case (the paper's design): gather one candidate tag
            // per way into a dense run and reduce with a single kernel
            // call.
            Tag cand[kMaxProbeWays];
            for (unsigned w = 0; w < ways; ++w)
                cand[w] = slots[std::size_t{w} * sets + idx[w]].tag;
            const std::size_t hit = findTag(cand, ways, tag);
            if (hit == ways)
                return npos;
            return std::size_t{hit} * sets + idx[hit];
        }
        // Bucketized variant: each (way, set) bucket is already a
        // contiguous run; kernel-probe the runs in way order.
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t base =
                (std::size_t{w} * sets + idx[w]) * bucketSlots;
            const std::size_t b = findTag(&slots[base], bucketSlots, tag);
            if (b != bucketSlots)
                return base + b;
        }
        return npos;
    }

    /** Find the payload for @p tag, or nullptr. */
    Payload *
    find(Tag tag)
    {
        const std::size_t pos = findPos(tag);
        return pos == npos ? nullptr : &slots[pos].payload;
    }

    /** @copydoc find */
    const Payload *
    find(Tag tag) const
    {
        const std::size_t pos = findPos(tag);
        return pos == npos ? nullptr : &slots[pos].payload;
    }

    /** Payload stored at a position returned by findPos(). */
    Payload &
    payloadAt(std::size_t pos)
    {
        assert(pos < slots.size() && slots[pos].tag != kVacantTag);
        return slots[pos].payload;
    }

    /** Tag stored at a position returned by findPos(). */
    Tag
    tagAt(std::size_t pos) const
    {
        assert(pos < slots.size() && slots[pos].tag != kVacantTag);
        return slots[pos].tag;
    }

    /**
     * Insert @p tag with @p payload. The tag must not already be
     * present (callers look up first, as the hardware does).
     */
    InsertResult
    insert(Tag tag, Payload &&payload)
    {
        std::size_t idx[kMaxProbeWays];
        hashes.indexAll(tag, idx);
        return insert(tag, std::move(payload), idx);
    }

    /**
     * insert() given the way indices @p tag_idx of @p tag (as for
     * findPos), so a miss that already probed does not hash the tag
     * again.
     */
    InsertResult
    insert(Tag tag, Payload &&payload, const std::size_t *tag_idx)
    {
        assert(tag != kVacantTag && "kVacantTag marks an empty slot");
        assert(findPos(tag, tag_idx) == npos && "duplicate insert");
        InsertResult result;

        Tag cur_tag = tag;
        Payload cur_payload = std::move(payload);
        unsigned way = nextWay;
        std::size_t displaced_idx[kMaxProbeWays];
        const std::size_t *idx = tag_idx;

        while (true) {
            ++result.attempts;
            if (result.attempts > 1) {
                hashes.indexAll(cur_tag, displaced_idx);
                idx = displaced_idx;
            }

            // The lookup preceding each (re-)insertion reveals vacant
            // candidate slots; placing into one ends the procedure. The
            // scan starts at the round-robin way so that, at low
            // occupancy, placements rotate across the ways and keep
            // them uniformly utilized (§4.2).
            unsigned placed_way = 0;
            const std::size_t vacant = findVacantPos(idx, way, placed_way);
            if (vacant != npos) {
                slots[vacant].tag = cur_tag;
                slots[vacant].payload = std::move(cur_payload);
                ++occupied;
                nextWay = (placed_way + 1) % ways;
                return result;
            }

            if (result.attempts >= maxAttempts) {
                // Bound hit: discard the most recently displaced element
                // (§4.2) and report it so the caller can invalidate the
                // blocks it tracked.
                result.discarded = true;
                result.discardedTag = cur_tag;
                result.discardedPayload = std::move(cur_payload);
                nextWay = way;
                return result;
            }

            // Displace an occupant of the current way's bucket and
            // continue with it in the next way. The rotor spreads
            // victim choice across bucket slots.
            const std::size_t victim =
                (std::size_t{way} * sets + idx[way]) * bucketSlots +
                victimRotor % bucketSlots;
            ++victimRotor;
            assert(slots[victim].tag != kVacantTag);
            std::swap(cur_tag, slots[victim].tag);
            std::swap(cur_payload, slots[victim].payload);
            way = (way + 1) % ways;
        }
    }

    /**
     * Remove the element at a position returned by findPos().
     * @return the payload that occupied the slot.
     */
    Payload
    eraseAt(std::size_t pos)
    {
        assert(pos < slots.size() && slots[pos].tag != kVacantTag);
        slots[pos].tag = kVacantTag;
        --occupied;
        return std::move(slots[pos].payload);
    }

    /**
     * Remove @p tag.
     * @return the payload if the tag was present.
     */
    std::optional<Payload>
    erase(Tag tag)
    {
        const std::size_t pos = findPos(tag);
        if (pos == npos)
            return std::nullopt;
        return eraseAt(pos);
    }

    /** Valid elements. */
    std::size_t size() const { return occupied; }

    /** Total slots. */
    std::size_t capacity() const { return slots.size(); }

    /** Fraction of slots in use. */
    double
    occupancy() const
    {
        return double(occupied) / double(capacity());
    }

    /** Number of ways (arity d). */
    unsigned numWays() const { return ways; }

    /** Sets per way. */
    std::size_t setsPerWay() const { return sets; }

    /** Elements per (way, set) bucket. */
    unsigned slotsPerBucket() const { return bucketSlots; }

    /**
     * Visit every valid element as (tag, payload&). @p visitor returns
     * void; iteration order is way-major.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visitor) const
    {
        for (const Slot &slot : slots)
            if (slot.tag != kVacantTag)
                visitor(slot.tag, slot.payload);
    }

    /**
     * Host bytes of the slot array (payloads included, stored inline).
     * Feeds Directory::memoryBytes().
     */
    std::size_t
    memoryBytes() const
    {
        return slots.capacity() * sizeof(Slot);
    }

    /** Occupancy of one way (test support for uniform-way utilization). */
    double
    wayOccupancy(unsigned way) const
    {
        assert(way < ways);
        std::size_t used = 0;
        const std::size_t per_way = sets * bucketSlots;
        for (std::size_t i = 0; i < per_way; ++i)
            if (slots[std::size_t{way} * per_way + i].tag != kVacantTag)
                ++used;
        return double(used) / double(per_way);
    }

  private:
    /**
     * Position of the first vacant candidate slot given precomputed way
     * indices @p idx, scanning ways from @p start and wrapping;
     * @p found_way receives the way chosen. Returns npos if every
     * candidate is occupied.
     */
    std::size_t
    findVacantPos(const std::size_t *idx, unsigned start,
                  unsigned &found_way) const
    {
        for (unsigned i = 0; i < ways; ++i) {
            const unsigned w = (start + i) % ways;
            const std::size_t base =
                (std::size_t{w} * sets + idx[w]) * bucketSlots;
            const std::size_t b = cdir::findVacant(&slots[base], bucketSlots);
            if (b != bucketSlots) {
                found_way = w;
                return base + b;
            }
        }
        return npos;
    }

    const HashFamily &hashes;
    unsigned ways;
    std::size_t sets;
    unsigned maxAttempts;
    unsigned bucketSlots;
    LineAlignedVector<Slot> slots; //!< way-major {tag, payload} slots
    std::size_t occupied = 0;
    unsigned nextWay = 0;     //!< round-robin start way (§4.2)
    unsigned victimRotor = 0; //!< bucket-slot victim rotation
};

} // namespace cdir

#endif // CDIR_DIRECTORY_CUCKOO_TABLE_HH
