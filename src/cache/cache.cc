#include "cache/cache.hh"

#include <cassert>

namespace cdir {

SetAssocCache::SetAssocCache(const CacheConfig &config) : cfg(config)
{
    assert(isPowerOfTwo(cfg.numSets));
    assert(cfg.assoc >= 1 && cfg.assoc <= kKernelWidth);
    indexMask = cfg.numSets - 1;
    frames.assign(cfg.numSets * cfg.assoc, Frame{kVacantTag, 0});
}

std::size_t
SetAssocCache::findFrame(BlockAddr addr) const
{
    const std::size_t base = setIndex(addr) * cfg.assoc;
    const std::size_t w = findTag(&frames[base], cfg.assoc, addr);
    return w == cfg.assoc ? nframe : base + w;
}

CacheAccessResult
SetAssocCache::access(BlockAddr addr, bool is_write)
{
    assert(addr != kVacantTag);
    CacheAccessResult result;
    ++useClock;

    const std::size_t f = findFrame(addr);
    if (f != nframe) {
        result.hit = true;
        std::uint64_t dirty = frames[f].stamp & dirtyBit;
        if (is_write && dirty == 0) {
            result.writeHitClean = true;
            dirty = dirtyBit;
        }
        frames[f].stamp = useClock | dirty;
        return result;
    }

    // Miss: pick a vacant frame or the LRU victim (first vacant way
    // wins, else the strictly-smallest last use in way order).
    const std::size_t base = setIndex(addr) * cfg.assoc;
    std::size_t victim = base;
    const std::size_t vacant = cdir::findVacant(&frames[base], cfg.assoc);
    if (vacant != cfg.assoc) {
        victim = base + vacant;
    } else {
        std::uint64_t oldest = frames[base].stamp & ~dirtyBit;
        for (unsigned w = 1; w < cfg.assoc; ++w) {
            const std::uint64_t used = frames[base + w].stamp & ~dirtyBit;
            if (used < oldest) {
                oldest = used;
                victim = base + w;
            }
        }
    }

    Frame &frame = frames[victim];
    if (frame.tag != kVacantTag) {
        result.victim = frame.tag;
        result.victimDirty = (frame.stamp & dirtyBit) != 0;
    } else {
        ++resident;
    }

    frame.tag = addr;
    frame.stamp = useClock | (is_write ? dirtyBit : 0);
    return result;
}

bool
SetAssocCache::contains(BlockAddr addr) const
{
    return findFrame(addr) != nframe;
}

bool
SetAssocCache::isDirty(BlockAddr addr) const
{
    const std::size_t f = findFrame(addr);
    return f != nframe && (frames[f].stamp & dirtyBit) != 0;
}

bool
SetAssocCache::invalidate(BlockAddr addr)
{
    const std::size_t f = findFrame(addr);
    if (f != nframe) {
        frames[f] = Frame{kVacantTag, 0};
        assert(resident > 0);
        --resident;
        return true;
    }
    return false;
}

void
SetAssocCache::cleanse(BlockAddr addr)
{
    const std::size_t f = findFrame(addr);
    if (f != nframe)
        frames[f].stamp &= ~dirtyBit;
}

std::vector<BlockAddr>
SetAssocCache::residentAddresses() const
{
    std::vector<BlockAddr> out;
    out.reserve(resident);
    for (const Frame &frame : frames)
        if (frame.tag != kVacantTag)
            out.push_back(frame.tag);
    return out;
}

} // namespace cdir
