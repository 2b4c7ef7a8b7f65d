#include "common/arena.hh"

#include <sys/mman.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <new>

#include <sanitizer/asan_interface.h>

namespace cdir {

namespace {

constexpr std::size_t kLine = 64;
constexpr std::size_t kHugePage = std::size_t{2} << 20;
constexpr std::size_t kReservation = kArenaReservationBytes;
/** Low bit of the word below a carve: set for arena blocks only. */
constexpr std::uintptr_t kArenaTag = 1;

constexpr std::size_t
roundUp(std::size_t n, std::size_t to)
{
    return (n + to - 1) & ~(to - 1);
}

} // namespace

/** One reservation; this header lives in its first bytes. */
struct Arena
{
    char *
    base()
    {
        return reinterpret_cast<char *>(this);
    }

    std::size_t bump = 0;     //!< offset of the first free byte
    std::size_t carves = 0;   //!< carves since the scope opened: colour
    std::size_t poisoned = 0; //!< [kHeader, poisoned) poisoned outside carves
    std::atomic<std::size_t> mapped{0}; //!< carves' reach, in huge pages
    std::atomic<std::size_t> live{0};  //!< bytes of live carves
    std::atomic<std::size_t> refs{0};  //!< live carves + open scope
    Arena *nextPooled = nullptr;       //!< pool free list
    Arena *nextMapped = nullptr;       //!< every arena, newest first
};

namespace {

constexpr std::size_t kHeader = roundUp(sizeof(Arena), kLine);

/** Released arenas and every mapped one; intrusive, so never allocates. */
struct Pool
{
    std::mutex mutex;
    Arena *pooled = nullptr;
    Arena *mapped = nullptr;
};

Pool &
pool()
{
    static Pool *const instance = new Pool; // outlives every system
    return *instance;
}

thread_local constinit Arena *current = nullptr;

/** A pooled arena, else a fresh reservation; nullptr if none maps. */
Arena *
acquire()
{
    Pool &p = pool();
    std::unique_lock lock(p.mutex);
    if (Arena *a = p.pooled) {
        p.pooled = a->nextPooled;
        return a;
    }
    lock.unlock();
    void *raw = mmap(nullptr, kReservation + kHugePage,
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (raw == MAP_FAILED)
        return nullptr;
    // Trim to a 2 MiB-aligned reservation, so every whole huge page of
    // it can be backed by one.
    char *const start = static_cast<char *>(raw);
    char *const base = reinterpret_cast<char *>(
        roundUp(reinterpret_cast<std::uintptr_t>(start), kHugePage));
    if (base != start)
        munmap(start, static_cast<std::size_t>(base - start));
    munmap(base + kReservation,
           static_cast<std::size_t>(start + kHugePage - base));
    if (madvise(base, kReservation, MADV_HUGEPAGE) != 0) {
        munmap(base, kReservation);
        return nullptr;
    }
    Arena *const a = new (base) Arena; // faults in the first huge page
    a->poisoned = kHeader;
    a->mapped.store(kHugePage, std::memory_order_relaxed);
    lock.lock();
    a->nextMapped = p.mapped;
    p.mapped = a;
    return a;
}

/** Drop one reference; the last one returns @p a to the pool. */
void
unref(Arena *a) noexcept
{
    if (a->refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    Pool &p = pool();
    const std::lock_guard lock(p.mutex);
    a->nextPooled = p.pooled;
    p.pooled = a;
}

std::uintptr_t
tagBelow(const void *block)
{
    std::uintptr_t tag;
    std::memcpy(&tag, static_cast<const char *>(block) - sizeof tag,
                sizeof tag);
    return tag;
}

} // namespace

ArenaScope::ArenaScope() : arena(acquire()), outer(current)
{
    current = arena;
    if (!arena)
        return;
    arena->bump = kHeader;
    arena->carves = 0;
    arena->refs.store(1, std::memory_order_relaxed);
}

ArenaScope::~ArenaScope()
{
    current = outer;
    if (!arena)
        return;
    // Give back the pages an earlier, larger system faulted in past
    // this one's extent.
    const std::size_t keep = roundUp(arena->bump, kHugePage);
    const std::size_t mapped = arena->mapped.load(std::memory_order_relaxed);
    if (mapped > keep) {
        madvise(arena->base() + keep, mapped - keep, MADV_DONTNEED);
        arena->mapped.store(keep, std::memory_order_relaxed);
    }
    unref(arena);
}

void *
arenaAllocate(std::size_t bytes, std::size_t align) noexcept
{
    Arena *const a = current;
    if (!a)
        return nullptr;
    const std::size_t gap = (1 + a->carves % 7) * kLine;
    const std::size_t start = roundUp(roundUp(a->bump, kLine) + gap, align);
    if (start > kReservation || bytes > kReservation - start)
        return nullptr;
    const std::size_t end = start + bytes;
    ++a->carves;
    a->bump = end;
    if (end > a->mapped.load(std::memory_order_relaxed))
        a->mapped.store(roundUp(end, kHugePage), std::memory_order_relaxed);
    // Keep a line past the last carve poisoned, however it ends.
    const std::size_t frontier = roundUp(end + kLine, kHugePage);
    if (frontier > a->poisoned) {
        ASAN_POISON_MEMORY_REGION(a->base() + a->poisoned,
                                  frontier - a->poisoned);
        a->poisoned = frontier;
    }
    char *const block = a->base() + start;
    const std::uintptr_t tag = reinterpret_cast<std::uintptr_t>(a) | kArenaTag;
    ASAN_UNPOISON_MEMORY_REGION(block - sizeof tag, bytes + sizeof tag);
    std::memcpy(block - sizeof tag, &tag, sizeof tag);
    a->live.fetch_add(bytes, std::memory_order_relaxed);
    a->refs.fetch_add(1, std::memory_order_relaxed);
    return block;
}

bool
arenaRelease(void *block, std::size_t bytes) noexcept
{
    const std::uintptr_t tag = tagBelow(block);
    if (!(tag & kArenaTag))
        return false;
    Arena *const a = reinterpret_cast<Arena *>(tag & ~kArenaTag);
    ASAN_POISON_MEMORY_REGION(static_cast<char *>(block) - sizeof tag,
                              bytes + sizeof tag);
    a->live.fetch_sub(bytes, std::memory_order_relaxed);
    unref(a);
    return true;
}

bool
arenaOwns(const void *block) noexcept
{
    return tagBelow(block) & kArenaTag;
}

std::vector<ArenaInfo>
arenaSnapshot()
{
    Pool &p = pool();
    const std::lock_guard lock(p.mutex);
    std::vector<ArenaInfo> out;
    for (Arena *a = p.mapped; a; a = a->nextMapped) {
        bool pooled = false;
        for (Arena *f = p.pooled; f; f = f->nextPooled)
            pooled = pooled || f == a;
        out.push_back({reinterpret_cast<std::uintptr_t>(a), kReservation,
                       a->mapped.load(std::memory_order_relaxed),
                       a->live.load(std::memory_order_relaxed), pooled});
    }
    return out;
}

} // namespace cdir
