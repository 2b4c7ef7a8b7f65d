/**
 * @file
 * Run-time-sized bitset used for sharer vectors and Bloom-filter rows.
 *
 * std::bitset is compile-time sized and std::vector<bool> lacks word-level
 * operations; directory sharer vectors need a size chosen at configuration
 * time (the number of private caches) plus fast population count and
 * iteration over set bits.
 *
 * Word storage is 64-byte aligned (one cache line) so the bulk kernels —
 * count, setRange, forEachSetBit — stream whole lines and auto-vectorize
 * cleanly; a 1024-core sharer vector is exactly two lines.
 * forEachSetBit is the one iteration primitive (invalidation fan-out):
 * it walks words and extracts set bits with countr_zero.
 */

#ifndef CDIR_COMMON_BITSET_HH
#define CDIR_COMMON_BITSET_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "common/arena.hh"

namespace cdir {

/**
 * Minimal allocator pinning allocations to @p Align bytes; keeps
 * std::vector's value semantics while making every word buffer start on
 * a cache-line boundary.
 *
 * While an ArenaScope is open on the calling thread (a CmpSystem under
 * construction), blocks are carved from that scope's huge-page arena
 * (common/arena.hh); the word just below an arena block tags it, and
 * deallocate hands it back to its arena. Otherwise the allocator
 * over-allocates by @p Align from plain operator new and keeps the raw
 * pointer in that word. glibc's aligned allocation instead asks the
 * heap for the size plus worst-case padding, so a freed buffer is too
 * small to serve the same request again unless it coalesces with a free
 * neighbour; a program that rebuilds systems (every sweep cell, every
 * benchmark repetition) then grows its heap by about one system per
 * rebuild. An over-allocated block is an exact fit for its successor.
 */
template <typename T, std::size_t Align>
struct AlignedAllocator
{
    static_assert(std::has_single_bit(Align) && Align >= sizeof(void *),
                  "Align must be a power of two that can hold a pointer");

    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {}
    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *
    allocate(std::size_t n)
    {
        if (n > (SIZE_MAX - Align) / sizeof(T))
            throw std::bad_array_new_length{};
        if (void *block = arenaAllocate(n * sizeof(T), Align))
            return static_cast<T *>(block);
        // operator new's result is at least pointer-aligned, so the
        // first multiple of Align above it leaves room for the pointer.
        void *raw = ::operator new(n * sizeof(T) + Align);
        const std::uintptr_t aligned =
            (reinterpret_cast<std::uintptr_t>(raw) + Align) & ~(Align - 1);
        std::memcpy(reinterpret_cast<void *>(aligned - sizeof(void *)), &raw,
                    sizeof raw);
        return reinterpret_cast<T *>(aligned);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (arenaRelease(p, n * sizeof(T)))
            return;
        void *raw;
        std::memcpy(&raw, reinterpret_cast<const char *>(p) - sizeof raw,
                    sizeof raw);
        ::operator delete(raw);
    }

    bool operator==(const AlignedAllocator &) const { return true; }
    bool operator!=(const AlignedAllocator &) const { return false; }
};

/** Vector whose buffer starts on a 64-byte host cache line. */
template <typename T>
using LineAlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

/** Dynamically sized bitset with word-parallel operations. */
class DynamicBitset
{
  public:
    /** Cache-line-aligned word buffer (see file comment). */
    using WordVector = LineAlignedVector<std::uint64_t>;

    DynamicBitset() = default;

    /** Construct with @p bits bits, all clear. */
    explicit DynamicBitset(std::size_t bits)
        : numBits(bits), words((bits + 63) / 64, 0)
    {}

    /** Number of bits in the set. */
    std::size_t size() const { return numBits; }

    /** Set bit @p pos. */
    void
    set(std::size_t pos)
    {
        assert(pos < numBits);
        words[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }

    /** Clear bit @p pos. */
    void
    reset(std::size_t pos)
    {
        assert(pos < numBits);
        words[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    /**
     * Overwrite word @p index (bits [64*index, 64*index + 64)); bits at
     * or past size() must be clear in @p bits.
     */
    void
    setWord(std::size_t index, std::uint64_t bits)
    {
        assert(index < words.size());
        words[index] = bits;
    }

    /** Test bit @p pos. */
    bool
    test(std::size_t pos) const
    {
        assert(pos < numBits);
        return (words[pos >> 6] >> (pos & 63)) & 1;
    }

    /** Clear every bit. */
    void
    clear()
    {
        for (auto &w : words)
            w = 0;
    }

    /**
     * Resize to @p bits bits, all clear, reusing the existing word
     * storage when possible (no heap traffic once the high-water size
     * has been reached — the property the allocation-free access
     * protocol relies on).
     */
    void
    reinit(std::size_t bits)
    {
        numBits = bits;
        words.assign((bits + 63) / 64, 0);
    }

    /** Number of set bits. */
    std::size_t
    count() const
    {
        std::size_t total = 0;
        for (auto w : words)
            total += static_cast<std::size_t>(std::popcount(w));
        return total;
    }

    /** True iff no bit is set. */
    bool
    none() const
    {
        for (auto w : words)
            if (w != 0)
                return false;
        return true;
    }

    /** True iff at least one bit is set. */
    bool any() const { return !none(); }

    /**
     * Invoke @p visitor(pos) for every set bit in ascending order: one
     * linear pass over the words with countr_zero extraction (cache
     * invalidations, hierarchical expansion).
     */
    template <typename Visitor>
    void
    forEachSetBit(Visitor &&visitor) const
    {
        const std::size_t n = words.size();
        for (std::size_t wi = 0; wi < n; ++wi) {
            std::uint64_t w = words[wi];
            while (w != 0) {
                const std::size_t pos =
                    (wi << 6) +
                    static_cast<std::size_t>(std::countr_zero(w));
                if (pos >= numBits)
                    return;
                visitor(pos);
                w &= w - 1; // clear the lowest set bit
            }
        }
    }

    /** Set every bit in [lo, hi) with word-masked fills. */
    void
    setRange(std::size_t lo, std::size_t hi)
    {
        assert(lo <= hi && hi <= numBits);
        if (lo >= hi)
            return;
        const std::size_t first = lo >> 6;
        const std::size_t last = (hi - 1) >> 6;
        const std::uint64_t head = highBitsFrom(lo & 63);
        const std::uint64_t tail = lowBits(((hi - 1) & 63) + 1);
        if (first == last) {
            words[first] |= head & tail;
            return;
        }
        words[first] |= head;
        for (std::size_t wi = first + 1; wi < last; ++wi)
            words[wi] = ~std::uint64_t{0};
        words[last] |= tail;
    }

    /** Equality (same size and same bits). */
    bool
    operator==(const DynamicBitset &other) const
    {
        return numBits == other.numBits && words == other.words;
    }

    /**
     * Bytes of heap the word buffer holds (capacity, not live size —
     * reinit() keeps high-water storage by design). Feeds the footprint
     * accounting in Directory::memoryBytes().
     */
    std::size_t heapBytes() const
    {
        return words.capacity() * sizeof(std::uint64_t);
    }

  private:
    static std::uint64_t
    lowBits(unsigned n)
    {
        return n == 0 ? 0 : (n >= 64 ? ~std::uint64_t{0}
                                     : ((std::uint64_t{1} << n) - 1));
    }

    /** Mask with bits [n, 64) set. */
    static std::uint64_t
    highBitsFrom(unsigned n)
    {
        return ~lowBits(n);
    }

    std::size_t numBits = 0;
    WordVector words;
};

} // namespace cdir

#endif // CDIR_COMMON_BITSET_HH
