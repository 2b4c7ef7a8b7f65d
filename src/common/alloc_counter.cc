#include "common/alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};

void *
countedMalloc(std::size_t size)
{
    ++g_allocations;
    std::size_t largest = g_largest.load();
    while (size > largest && !g_largest.compare_exchange_weak(largest, size))
        continue;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

} // namespace

namespace cdir {

std::size_t
allocationCount()
{
    return g_allocations;
}

std::size_t
largestAllocation()
{
    return g_largest;
}

void
resetLargestAllocation()
{
    g_largest = 0;
}

} // namespace cdir

// GCC pairs inlined std::vector new-expressions with these replaced
// deletes and flags the malloc/free mix; the pairing is ours and
// correct (new uses malloc), so the warning is spurious.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *operator new(std::size_t size) { return countedMalloc(size); }
void *operator new[](std::size_t size) { return countedMalloc(size); }

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop
