/**
 * @file
 * Quickstart: the Cuckoo directory public API in ~50 lines.
 *
 * Builds a 4-way, 512-set Cuckoo directory slice by organization name,
 * drives the three protocol operations (read miss,
 * write upgrade, eviction) through a reusable DirAccessContext — the
 * allocation-free hot-path API — and prints the statistics the paper's
 * evaluation is built on.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "directory/directory.hh"

using namespace cdir;

int
main()
{
    // One slice of the paper's Shared-L2 configuration: 4 ways x 512
    // sets (1x provisioning for 16 cores x 2 L1s), full bit-vector
    // sharer entries, Seznec-Bodin skewing hash functions. Every
    // organization is built by name through makeDirectory().
    DirectoryParams params;
    params.organization = "Cuckoo";
    params.numCaches = 32;
    params.ways = 4;
    params.sets = 512;
    auto directory = makeDirectory(params);

    // The caller owns the context; it is reset (not reallocated)
    // between calls, so the steady-state loop never touches the heap.
    DirAccessContext ctx = directory->makeContext();

    // Cache 3 read-misses on block 0x1000: a directory entry is
    // allocated and tracks the new sharer.
    ctx.reset();
    directory->access(DirRequest{0x1000, /*cache=*/3, /*isWrite=*/false},
                      ctx);
    std::printf("read miss:  inserted=%d attempts=%u\n",
                ctx.back().inserted, ctx.back().attempts);

    // Cache 7 also reads the block: the entry gains a second sharer.
    ctx.reset();
    directory->access(DirRequest{0x1000, 7, false}, ctx);

    // Cache 3 writes the block: the directory answers with the set of
    // caches whose copies must be invalidated.
    ctx.reset();
    directory->access(DirRequest{0x1000, 3, true}, ctx);
    const DirAccessOutcome &write = ctx.back();
    if (write.hadSharerInvalidations) {
        std::printf("write hit:  invalidate caches:");
        const DynamicBitset &targets = ctx.sharerInvalidations(write);
        targets.forEachSetBit([](std::size_t c) { std::printf(" %zu", c); });
        std::printf("\n");
    }

    // Cache 3 eventually evicts the block: the last sharer leaving
    // frees the entry for reuse.
    directory->removeSharer(0x1000, 3);
    std::printf("after evict: tracked=%s\n",
                directory->probe(0x1000) ? "yes" : "no");

    const DirectoryStats &stats = directory->stats();
    std::printf("\nstats: lookups=%llu insertions=%llu "
                "avg attempts=%.2f forced evictions=%llu\n",
                static_cast<unsigned long long>(stats.lookups),
                static_cast<unsigned long long>(stats.insertions),
                stats.insertionAttempts.mean(),
                static_cast<unsigned long long>(stats.forcedEvictions));
    std::printf("occupancy: %.4f (capacity %zu entries)\n",
                directory->occupancy(), directory->capacity());
    return 0;
}
