#include "sharers/sharer_set.hh"

#include <algorithm>
#include <bit>

#include "common/bit_util.hh"

namespace cdir {

unsigned
sharerStorageBits(SharerFormat format, std::size_t num_caches)
{
    switch (format) {
      case SharerFormat::FullVector:
      case SharerFormat::Compressed: // word-packed full vector
        return static_cast<unsigned>(num_caches);
      case SharerFormat::CoarseVector:
        return 2 * bitsToName(num_caches);
      case SharerFormat::Hierarchical: {
        // Primary-entry cost: root vector sized one bit per cluster of
        // isqrtCeil(N) caches (second-level entries live at secondary
        // locations and are charged separately by the model). Exact
        // integer math, so the geometry is identical on every platform.
        const auto cluster =
            static_cast<std::size_t>(isqrtCeil(num_caches));
        return static_cast<unsigned>((num_caches + cluster - 1) / cluster);
      }
    }
    return 0;
}

SharerStore::SharerStore(SharerFormat format, std::size_t num_caches)
    : caches(num_caches),
      spills(num_caches > 64),
      coarse(format == SharerFormat::CoarseVector),
      wordsPerBlock((num_caches + 63) / 64),
      pointerBudget(0),
      cachesPerGroup(1)
{
    assert(num_caches >= 1);
    assert(wordsPerBlock <= (kSpilled >> kSpanShift) &&
           "every span index fits its aux field");
    if (coarse) {
        // The entry budgets 2*log2(N) bits: two exact log2(N)-bit
        // pointers, or as many coarse group bits once they overflow.
        assert(num_caches >= 2);
        const std::size_t pointer_bits = bitsToName(num_caches);
        const std::size_t budget_bits = 2 * pointer_bits;
        pointerBudget = budget_bits / pointer_bits;
        const std::size_t groups = std::min(budget_bits, num_caches);
        assert(groups <= kSpanShift && "the group bits fit below the span");
        cachesPerGroup = (num_caches + groups - 1) / groups;
    }
}

SharerStore::Words
SharerStore::membership(const SharerSet &set) const
{
    if (!spills)
        return {&set.word, 1, 0};
    if (set.empty())
        return {nullptr, 0, 0};
    if (isSpilled(set))
        return {blockOf(set), wordsPerBlock, 0};
    return {&set.word, 1, spanOf(set)};
}

void
SharerStore::noteCoarseAdd(SharerSet &set, CacheId cache) const
{
    if ((set.aux & kGroupMask) == 0) {
        if (count(set) < pointerBudget)
            return; // an exact pointer is still free
        // Overflow: reinterpret the budgeted bits as a coarse group
        // vector covering every current sharer.
        const Words words = membership(set);
        for (std::size_t w = 0; w < words.count; ++w) {
            for (std::uint64_t bits = words.data[w]; bits != 0;
                 bits &= bits - 1) {
                set.aux |= groupBit(static_cast<CacheId>(
                    (words.first + w) * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits))));
            }
        }
    }
    set.aux |= groupBit(cache);
}

void
SharerStore::addSpilled(SharerSet &set, CacheId cache)
{
    const std::size_t span = cache >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (cache & 63);
    if (set.empty()) {
        set.word = bit;
        set.aux = std::uint64_t{span} << kSpanShift;
        return;
    }
    std::uint64_t *word = &set.word;
    if (isSpilled(set)) {
        word = blockOf(set) + span;
    } else if (span != spanOf(set)) {
        // A sharer outside the inline span: spill the set.
        std::uint64_t *block = acquireBlock();
        block[spanOf(set)] = set.word;
        if (coarse)
            noteCoarseAdd(set, cache);
        set.word = reinterpret_cast<std::uintptr_t>(block);
        set.aux = (set.aux & kGroupMask) | kSpilled;
        block[span] |= bit;
        return;
    }
    if ((*word & bit) != 0)
        return;
    if (coarse)
        noteCoarseAdd(set, cache);
    *word |= bit;
}

bool
SharerStore::removeSpilled(SharerSet &set, CacheId cache)
{
    const std::size_t span = cache >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (cache & 63);
    if (!isSpilled(set)) {
        if (!set.empty() && span == spanOf(set))
            set.word &= ~bit;
        if (set.word != 0)
            return false;
        set = SharerSet{};
        return true;
    }
    std::uint64_t *block = blockOf(set);
    block[span] &= ~bit;
    if (block[span] != 0 ||
        std::any_of(block, block + wordsPerBlock,
                    [](std::uint64_t w) { return w != 0; }))
        return false;
    releaseBlock(block);
    set = SharerSet{};
    return true;
}

void
SharerStore::clear(SharerSet &set)
{
    if (spills && isSpilled(set))
        releaseBlock(blockOf(set));
    set = SharerSet{};
}

std::size_t
SharerStore::count(const SharerSet &set) const
{
    const Words words = membership(set);
    std::size_t total = 0;
    for (std::size_t w = 0; w < words.count; ++w)
        total += static_cast<std::size_t>(std::popcount(words.data[w]));
    return total;
}

void
SharerStore::invalidationTargets(const SharerSet &set,
                                 DynamicBitset &out) const
{
    out.reinit(caches);
    if (const std::uint64_t groups = set.aux & kGroupMask; groups != 0) {
        // Coarse mode: every cache of every marked group.
        for (std::uint64_t g = groups; g != 0; g &= g - 1) {
            const std::size_t lo =
                static_cast<std::size_t>(std::countr_zero(g)) *
                cachesPerGroup;
            out.setRange(lo, std::min(lo + cachesPerGroup, caches));
        }
        return;
    }
    const Words words = membership(set);
    for (std::size_t w = 0; w < words.count; ++w)
        out.setWord(words.first + w, words.data[w]);
}

std::uint64_t *
SharerStore::acquireBlock()
{
    if (freeBlocks == nullptr) {
        auto chunk = std::make_unique<std::uint64_t[]>(kBlocksPerChunk *
                                                       wordsPerBlock);
        for (std::size_t i = kBlocksPerChunk; i-- > 0;)
            releaseBlock(chunk.get() + i * wordsPerBlock);
        chunks.push_back(std::move(chunk));
    }
    std::uint64_t *block = freeBlocks;
    freeBlocks = reinterpret_cast<std::uint64_t *>(
        static_cast<std::uintptr_t>(block[0]));
    std::fill_n(block, wordsPerBlock, 0);
    return block;
}

void
SharerStore::releaseBlock(std::uint64_t *block)
{
    block[0] = reinterpret_cast<std::uintptr_t>(freeBlocks);
    freeBlocks = block;
}

} // namespace cdir
