/**
 * @file
 * Huge-page arenas for the arrays a simulated system builds once.
 *
 * Every reference reads one random private-cache set and every
 * directory request probes d random slots (§4), so a system's frame
 * arrays and directory tables are read at random over megabytes: with
 * 4 KiB pages that is hundreds of TLB entries for a 16-core system.
 * Instead, while an ArenaScope is open, every AlignedAllocator
 * allocation on that thread (common/bitset.hh) is carved from one
 * arena: 2 MiB-aligned address space reserved with MAP_NORESERVE and
 * advised MADV_HUGEPAGE, so the kernel can back it with a few huge
 * pages. The CmpSystem constructor opens one scope; nothing else does.
 *
 *  - Carving is a bump pointer. Each carve starts 1-7 cache lines
 *    (a varying number) past the previous one's end, so equal
 *    power-of-two lanes do not all start on the same cache sets. The
 *    word below each carve tags it as an arena block;
 *    AlignedAllocator's heap blocks keep their raw pointer there.
 *  - An arena counts its live carves plus one for its open scope. At
 *    zero it returns to a process-wide pool, pages still mapped, and
 *    the next scope reuses it: a rebuilt system takes no page faults.
 *    Closing a scope releases the pages beyond what its carves reached,
 *    so a pooled arena holds at most its last system's extent.
 *  - When the reservation cannot be mapped or advised, or a system
 *    outgrows it, allocations go to the heap as without a scope. The
 *    arena changes which pages the simulated state lives on, never
 *    its bytes or any result.
 *  - Under AddressSanitizer every arena byte outside a live carve (the
 *    colour gaps, released carves, the unused tail) is poisoned, so an
 *    overrun past an array is reported as on the heap.
 */

#ifndef CDIR_COMMON_ARENA_HH
#define CDIR_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdir {

/**
 * Address space per arena. MAP_NORESERVE commits nothing up front; this
 * covers ext_scalability_sim's largest cell (about 1.5 GB) with room,
 * and CmpSystem rejects a geometry whose arrays cannot fit in it.
 */
inline constexpr std::size_t kArenaReservationBytes = std::size_t{4} << 30;

struct Arena;

/**
 * Routes the calling thread's AlignedAllocator allocations to one arena
 * while it is alive (see file comment). A nested scope uses its own
 * arena and restores the outer one when it closes.
 */
class ArenaScope
{
  public:
    ArenaScope();
    ~ArenaScope();
    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    Arena *arena; //!< nullptr: the reservation failed, use the heap
    Arena *outer; //!< the scope this one shadows
};

/**
 * Carve @p bytes aligned to @p align (a power of two) from the calling
 * thread's open scope and tag the word below it. nullptr when no scope
 * is open or the arena is full: the caller uses the heap.
 */
void *arenaAllocate(std::size_t bytes, std::size_t align) noexcept;

/**
 * Release @p block of @p bytes if the word below it tags an arena
 * carve, and return true; return false (nothing done) for any other
 * block of the same layout.
 */
bool arenaRelease(void *block, std::size_t bytes) noexcept;

/** True iff @p block was carved by arenaAllocate and is tagged so. */
bool arenaOwns(const void *block) noexcept;

/** One arena's state (diagnostics and tests). */
struct ArenaInfo
{
    std::uintptr_t base = 0;      //!< reservation start, 2 MiB-aligned
    std::size_t reserved = 0;     //!< reserved address space, bytes
    std::size_t mapped = 0;       //!< bytes its carves have reached,
                                  //!< rounded up to whole huge pages
    std::size_t liveBytes = 0;    //!< bytes of live carves
    bool pooled = false;          //!< released, waiting for a scope
};

/**
 * Every arena the process has mapped, newest first. Read it while no
 * other thread opens scopes or frees arena blocks.
 */
std::vector<ArenaInfo> arenaSnapshot();

} // namespace cdir

#endif // CDIR_COMMON_ARENA_HH
