#include "model/directory_model.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/bit_util.hh"

namespace cdir {

namespace {

double
log2d(double v)
{
    return std::log2(std::max(v, 2.0));
}

/** Tag bits left after slice interleaving and set indexing. */
double
tagBitsFor(const DirSystemParams &p, double sets_per_slice)
{
    const double consumed =
        log2d(double(p.numCores)) + log2d(sets_per_slice);
    return std::max(double(p.blockAddrBits()) - consumed, 8.0);
}

/** Weighted energy given per-operation (read, write) bit costs. */
struct OpBits
{
    double readBits = 0.0;
    double writeBits = 0.0;
};

double
mixEnergy(const DirSystemParams &p, double rows, const EventMix &mix,
          const OpBits &insert, const OpBits &add, const OpBits &remove,
          const OpBits &remove_tag, const OpBits &invalidate)
{
    auto e = [&](const OpBits &op) {
        return sramAccessEnergy(static_cast<std::size_t>(
                                    std::max(rows, 1.0)),
                                op.readBits, op.writeBits, p.tech);
    };
    return mix.insert * e(insert) + mix.addSharer * e(add) +
           mix.removeSharer * e(remove) + mix.removeTag * e(remove_tag) +
           mix.invalidateAll * e(invalidate);
}

DirCost
finalize(const DirSystemParams &p, double energy_per_op,
         double area_bits_per_core)
{
    DirCost cost;
    cost.energyPerOp = energy_per_op;
    cost.energyRelative = energy_per_op / l2TagLookupEnergy(p.tech);
    cost.areaBitsPerCore = area_bits_per_core;
    cost.areaRelative = area_bits_per_core / l2DataAreaBits();
    return cost;
}

/** Sparse/Cuckoo entry sharer-field width per format. */
double
vectorBits(OrgModel org, double num_caches)
{
    switch (org) {
      case OrgModel::SparseFull:
      case OrgModel::CuckooFull:
      case OrgModel::InCache:
        return num_caches;
      case OrgModel::SparseCoarse:
      case OrgModel::CuckooCoarse:
        return 2.0 * std::ceil(log2d(num_caches));
      case OrgModel::SparseHier:
      case OrgModel::CuckooHier: {
        // Root vector: one bit per cluster of isqrtCeil(C) caches.
        // Exact integer math matching sharerStorageBits() — note
        // ceil(C / isqrtCeil(C)) can be one less than ceil(sqrt(C))
        // (e.g. C = 128 packs into 11 clusters of 12), and std::sqrt on
        // a double can land on the wrong side of an exact square for
        // large C.
        const auto c = std::uint64_t(num_caches);
        const std::uint64_t cluster = std::max<std::uint64_t>(
            isqrtCeil(c), 1);
        return double((c + cluster - 1) / cluster);
      }
      default:
        return 0.0;
    }
}

bool
isHier(OrgModel org)
{
    return org == OrgModel::SparseHier || org == OrgModel::CuckooHier;
}

/**
 * Shared cost shape of every tagged-entry directory (Sparse and Cuckoo
 * families): `entries` slots of (tag + state + vector) bits organized in
 * `ways` ways. Cuckoo pays extra displacement read/writes per insert;
 * hierarchical formats pay a second serialized lookup plus replicated
 * tags at secondary locations.
 */
DirCost
taggedEntryCost(OrgModel org, const DirSystemParams &p,
                const EventMix &mix, double provisioning, unsigned ways,
                double avg_attempts)
{
    const double C = double(p.numCaches());
    const double entries_per_slice =
        provisioning * p.framesPerSlice();
    const double sets = std::max(entries_per_slice / ways, 1.0);
    const double tag_bits = tagBitsFor(p, sets);
    const double state_bits = 2.0;
    const double vec_bits = vectorBits(org, C);
    const double entry_bits = tag_bits + state_bits + vec_bits;

    // Hierarchical: secondary table with one leaf per primary entry
    // provisioned; each leaf replicates the tag (§3.3). A leaf is one
    // bit per cache in its cluster — isqrtCeil(C) bits.
    const double leaf_bits =
        isHier(org) ? double(isqrtCeil(std::uint64_t(C))) : 0.0;
    const double secondary_entry_bits =
        isHier(org) ? tag_bits + leaf_bits : 0.0;

    // Lookup: match `ways` tags, read the hit entry's vector (and one
    // secondary entry for hierarchical formats).
    const double lookup_read = ways * tag_bits + vec_bits +
                               (isHier(org) ? ways * tag_bits + leaf_bits
                                            : 0.0);

    // An insert writes one entry per placement (avg_attempts of them);
    // each displacement additionally reads the victim entry it moves.
    OpBits insert{lookup_read +
                      std::max(avg_attempts - 1.0, 0.0) * entry_bits,
                  avg_attempts * entry_bits + secondary_entry_bits};

    OpBits add{lookup_read, vec_bits + leaf_bits};
    OpBits remove{lookup_read, vec_bits + leaf_bits};
    OpBits remove_tag{lookup_read, 1.0};
    OpBits invalidate{lookup_read, vec_bits + leaf_bits};

    const double energy = mixEnergy(p, sets, mix, insert, add, remove,
                                    remove_tag, invalidate);
    const double area =
        entries_per_slice * (entry_bits + secondary_entry_bits);
    return finalize(p, energy, area);
}

} // namespace

DirCost
directoryCost(OrgModel org, const DirSystemParams &p, const EventMix &mix)
{
    const double C = double(p.numCaches());

    switch (org) {
      case OrgModel::DuplicateTag: {
        // Mirrored tags: sets x (C * cacheAssoc) tag frames per slice;
        // every lookup senses the full set width (§3.1).
        const double sets = std::max(
            double(p.framesPerCache) / p.cacheAssoc / double(p.numCores),
            1.0);
        const double tag_bits = tagBitsFor(p, sets);
        const double width = C * p.cacheAssoc;
        const double lookup_read = width * tag_bits;
        OpBits insert{lookup_read, tag_bits + 1.0};
        OpBits add{lookup_read, tag_bits + 1.0};
        OpBits remove{lookup_read, 1.0};
        OpBits remove_tag{lookup_read, 1.0};
        OpBits invalidate{lookup_read, C}; // clear every holder's frame
        const double energy = mixEnergy(p, sets, mix, insert, add,
                                        remove, remove_tag, invalidate);
        const double area = sets * width * (tag_bits + 1.0);
        return finalize(p, energy, area);
      }

      case OrgModel::Tagless: {
        // Bloom-filter grid [43]: per slice, grids x sets x B buckets,
        // each bucket holding a C-bit sharer word. A lookup reads the
        // addressed bucket's C-bit word per grid; an update
        // read-modify-writes it — "the bit-widths of either each read
        // or each update operation ... increase with the number of
        // cores" (§3.3), which is what keeps the Tagless energy slope
        // parallel to Duplicate-Tag at a lower constant.
        const double sets = std::max(
            double(p.framesPerCache) / p.cacheAssoc / double(p.numCores),
            1.0);
        const double B = p.taglessBucketBits != 0
                             ? double(p.taglessBucketBits)
                             : 8.0 * p.cacheAssoc;
        const double G = double(p.taglessGrids);
        const double lookup_read = G * C;
        OpBits insert{2.0 * lookup_read, G * C};
        OpBits add{2.0 * lookup_read, G * C};
        OpBits remove{2.0 * lookup_read, G * C};
        OpBits remove_tag{2.0 * lookup_read, G * C};
        OpBits invalidate{2.0 * lookup_read, G * C};
        const double energy = mixEnergy(p, sets * B, mix, insert, add,
                                        remove, remove_tag, invalidate);
        const double area = G * sets * C * B;
        return finalize(p, energy, area);
      }

      case OrgModel::InCache: {
        // Vectors on every shared-L2 tag: tag matching rides on the L2
        // access for free (§5.6), but sharer bits are provisioned for
        // all L2 frames.
        const double frames = double(p.l2FramesPerCore);
        OpBits insert{C, C};
        OpBits add{C, C};
        OpBits remove{C, C};
        OpBits remove_tag{C, C};
        OpBits invalidate{C, C};
        const double energy =
            mixEnergy(p, frames / 16.0, mix, insert, add, remove,
                      remove_tag, invalidate);
        const double area = frames * C;
        return finalize(p, energy, area);
      }

      case OrgModel::SparseFull:
      case OrgModel::SparseCoarse:
      case OrgModel::SparseHier:
        return taggedEntryCost(org, p, mix, p.sparseProvisioning,
                               p.sparseWays, 1.0);

      case OrgModel::CuckooFull:
      case OrgModel::CuckooCoarse:
      case OrgModel::CuckooHier:
        return taggedEntryCost(org, p, mix, p.cuckooProvisioning,
                               p.cuckooWays, p.cuckooAvgAttempts);
    }
    assert(false && "unreachable");
    return {};
}

double
modelSharerFieldBits(OrgModel org, std::size_t num_caches)
{
    return vectorBits(org, double(num_caches));
}

std::string
orgModelName(OrgModel org)
{
    switch (org) {
      case OrgModel::DuplicateTag:
        return "Duplicate-Tag";
      case OrgModel::Tagless:
        return "Tagless";
      case OrgModel::SparseFull:
        return "Sparse Full-Vector";
      case OrgModel::InCache:
        return "In-Cache";
      case OrgModel::SparseCoarse:
        return "Sparse Coarse";
      case OrgModel::SparseHier:
        return "Sparse Hierarchical";
      case OrgModel::CuckooFull:
        return "Cuckoo Full-Vector";
      case OrgModel::CuckooCoarse:
        return "Cuckoo Coarse";
      case OrgModel::CuckooHier:
        return "Cuckoo Hierarchical";
    }
    return "?";
}

} // namespace cdir
