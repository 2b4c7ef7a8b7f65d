/**
 * @file
 * Fixed-size worker-thread pool with a single FIFO task queue.
 *
 * The experiment layer (src/sim/sweep.hh) fans whole grid cells out to
 * workers through parallelFor() — the simulator's only parallelism;
 * a single CmpSystem always runs on one thread. Each cell is a
 * multi-second simulation, so a plain
 * mutex-protected queue — no work stealing, no per-worker deques — is
 * the right amount of machinery: contention on the queue lock is
 * negligible next to the task granularity, and a strict FIFO keeps the
 * execution order easy to reason about.
 *
 * Determinism contract: the pool schedules *when* tasks run, never what
 * they compute. Tasks that share no mutable state (every sweep cell owns
 * its CmpSystem and SyntheticWorkload RNG) produce identical results at
 * any worker count.
 */

#ifndef CDIR_COMMON_THREAD_POOL_HH
#define CDIR_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cdir {

/** Fixed pool of workers draining one FIFO queue (see file comment). */
class ThreadPool
{
  public:
    /** @param workers worker-thread count; 0 picks hardwareWorkers(). */
    explicit ThreadPool(unsigned workers)
    {
        if (workers == 0)
            workers = hardwareWorkers();
        threads.reserve(workers);
        for (unsigned i = 0; i < workers; ++i)
            threads.emplace_back([this] { workerLoop(); });
    }

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stopping = true;
        }
        wake.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; it runs on some worker in FIFO order. */
    void
    submit(std::function<void()> task)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            queue.push_back(std::move(task));
        }
        wake.notify_one();
    }

    /** Block until the queue is empty and no task is running. */
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        idle.wait(lock,
                  [this] { return queue.empty() && running == 0; });
    }

    /** Workers owned by this pool. */
    unsigned
    workerCount() const
    {
        return static_cast<unsigned>(threads.size());
    }

    /** Reasonable default worker count for this machine (>= 1). */
    static unsigned
    hardwareWorkers()
    {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 1u : n;
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex);
                wake.wait(lock, [this] {
                    return stopping || !queue.empty();
                });
                if (queue.empty())
                    return; // stopping and fully drained
                task = std::move(queue.front());
                queue.pop_front();
                ++running;
            }
            task();
            {
                std::lock_guard<std::mutex> lock(mutex);
                --running;
                if (queue.empty() && running == 0)
                    idle.notify_all();
            }
        }
    }

    std::mutex mutex;
    std::condition_variable wake;
    std::condition_variable idle;
    std::deque<std::function<void()>> queue;
    std::size_t running = 0;
    bool stopping = false;
    std::vector<std::thread> threads;
};

/**
 * Run `fn(i)` for every i in [0, @p count) across @p jobs workers.
 *
 * `jobs <= 1` runs the loop inline on the calling thread — no threads
 * are created, which keeps single-job runs trivially serial (the
 * determinism baseline) and sanitizer-friendly. The first exception
 * thrown by any invocation is rethrown after all work settles; later
 * exceptions are dropped.
 */
template <typename Fn>
void
parallelFor(unsigned jobs, std::size_t count, Fn &&fn)
{
    if (jobs == 0)
        jobs = ThreadPool::hardwareWorkers();
    if (jobs > count)
        jobs = static_cast<unsigned>(count); // never idle-spawn workers
    if (jobs <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Declared before the pool: if submit() throws mid-loop, the pool
    // must be destroyed (joining in-flight tasks) while this state the
    // tasks capture is still alive.
    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::atomic<bool> failed{false};
    ThreadPool pool(jobs);
    for (std::size_t i = 0; i < count; ++i) {
        pool.submit([&, i] {
            if (failed.load(std::memory_order_relaxed))
                return; // fail fast: skip remaining cells
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        });
    }
    pool.wait();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace cdir

#endif // CDIR_COMMON_THREAD_POOL_HH
