/**
 * @file
 * A work-stealing thread pool for the experiment engine. Each worker
 * owns a deque of tasks: it pushes and pops at the back (LIFO, cache
 * warm) and victims are robbed from the front (FIFO, oldest first),
 * the classic Chase-Lev discipline implemented here with per-deque
 * locks — contention is one uncontended lock per task in the common
 * case, far below the cost of a simulate() call.
 *
 * parallelFor() is the deterministic fan-out primitive built on top:
 * indices are claimed from a shared atomic counter, results land in
 * caller-indexed slots, and the first exception (if any) is rethrown
 * on the calling thread after the loop quiesces.
 */

#ifndef FF_COMMON_THREAD_POOL_HH
#define FF_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace ff
{

/**
 * Number of workers to use when the caller does not say: the FF_JOBS
 * environment variable if set to a positive integer that fits an
 * unsigned (cli::tryParseNumber syntax; anything else is ignored with
 * a warning), else the hardware concurrency (at least 1).
 */
unsigned defaultJobCount();

/** Work-stealing pool of persistent worker threads. */
class ThreadPool
{
  public:
    /**
     * Starts @p threads workers (0 = defaultJobCount()). A pool of
     * one worker still runs tasks on that worker, preserving the
     * submit/wait protocol of larger pools.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const
    {
        return static_cast<unsigned>(_workers.size());
    }

    /**
     * Enqueues @p task and returns a future for its completion. An
     * exception escaping the task is captured into the future.
     */
    std::future<void> submit(std::function<void()> task);

    /**
     * Runs fn(i) for every i in [0, n), fanned out across the
     * workers; the calling thread participates, so a pool is never
     * idle-blocked on its own caller. Rethrows the first task
     * exception after every index has been claimed and finished.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    struct Task
    {
        std::function<void()> fn;
        std::promise<void> done;
    };

    /** One worker's lock-guarded deque (back = hot end). */
    struct WorkerQueue
    {
        std::mutex mu;
        std::deque<Task> q;
    };

    void workerLoop(unsigned self);

    /** Pops from own back, else steals from a victim's front. */
    bool takeTask(unsigned self, Task &out);

    std::vector<std::unique_ptr<WorkerQueue>> _queues;
    std::vector<std::thread> _workers;

    std::mutex _sleepMu;
    std::condition_variable _wake;
    std::atomic<std::size_t> _queued{0};  ///< enqueued, not yet taken
    std::atomic<unsigned> _nextQueue{0};  ///< round-robin submit cursor
    std::atomic<bool> _stop{false};
};

} // namespace ff

#endif // FF_COMMON_THREAD_POOL_HH
