/**
 * @file
 * parallelFor: the simulator's only parallelism.
 *
 * The experiment layer (src/sim/sweep.hh) fans whole grid cells out
 * through parallelFor(); a single CmpSystem always runs on one thread.
 * Each cell is a multi-second simulation, so the schedule is one shared
 * counter: `jobs` threads each take the next unclaimed index until none
 * is left. Claiming a cell is one atomic increment, negligible next to
 * the cell, and nothing is queued or allocated per cell.
 *
 * Determinism contract: parallelFor decides *when* and on which thread
 * an index runs, never what it computes. Cells that share no mutable
 * state (every sweep cell owns its CmpSystem and SyntheticWorkload RNG)
 * produce identical results at any job count.
 */

#ifndef CDIR_COMMON_PARALLEL_FOR_HH
#define CDIR_COMMON_PARALLEL_FOR_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cdir {

/**
 * Run `fn(i)` for every i in [0, @p count) on @p jobs threads
 * (0 = one per hardware thread; never more than @p count).
 *
 * `jobs <= 1` runs the loop inline on the calling thread — no threads
 * are created, which keeps single-job runs trivially serial (the
 * determinism baseline) and sanitizer-friendly. After the first
 * exception no thread takes a new index; it is rethrown once every
 * thread has finished, and later exceptions are dropped.
 */
template <typename Fn>
void
parallelFor(unsigned jobs, std::size_t count, Fn &&fn)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    if (jobs > count)
        jobs = static_cast<unsigned>(count); // never idle-spawn workers
    if (jobs <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Declared before the threads: they run (and are joined) while this
    // state is alive, also when spawning one of them throws.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto worker = [&] {
        while (!failed) {
            const std::size_t i = next++;
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed = true;
            }
        }
    };
    {
        std::vector<std::jthread> threads; // joined at scope exit
        threads.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            threads.emplace_back(worker);
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace cdir

#endif // CDIR_COMMON_PARALLEL_FOR_HH
