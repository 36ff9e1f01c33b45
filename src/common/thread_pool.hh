/**
 * @file
 * A plain thread pool for the experiment engine. parallelFor() runs
 * one loop of independent indices on persistent workers and on the
 * calling thread: indices are claimed from a shared atomic counter,
 * results land in caller-indexed slots, and the first exception (if
 * any) is rethrown on the calling thread after the loop quiesces.
 */

#ifndef FF_COMMON_THREAD_POOL_HH
#define FF_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
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

/** Persistent workers that run one parallelFor() loop at a time. */
class ThreadPool
{
  public:
    /**
     * Allows up to @p threads workers (0 = defaultJobCount()). They
     * start on demand: a loop of n indices starts at most n - 1 of
     * them, since the caller runs indices too.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins every started worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The most workers a loop uses besides the calling thread. */
    unsigned threadCount() const { return _threads; }

    /**
     * Runs fn(i) for every i in [0, n) on the workers and the calling
     * thread, so a loop runs on at most threadCount() + 1 threads.
     * Returns once every index has finished, rethrowing the first
     * exception fn threw. Loops must not nest or overlap.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop(unsigned self);

    /** Runs unclaimed indices of the open loop until none are left. */
    void drain(const std::function<void(std::size_t)> &fn,
               std::size_t n);

    const unsigned _threads;

    // The open loop. Everything but _next is guarded by _mu.
    std::mutex _mu;
    std::condition_variable _wake; ///< a loop opened, or stop
    std::condition_variable _done; ///< the last helper left the loop
    /** The open loop's body; null while no loop is open. */
    const std::function<void(std::size_t)> *_fn = nullptr;
    std::size_t _n = 0;        ///< the open loop's index count
    std::uint64_t _loop = 0;   ///< loops opened so far
    unsigned _helpers = 0;     ///< workers inside the open loop
    std::exception_ptr _error; ///< first exception of the open loop
    bool _stop = false;
    std::atomic<std::size_t> _next{0}; ///< next unclaimed index

    std::vector<std::thread> _workers; ///< started on demand
};

} // namespace ff

#endif // FF_COMMON_THREAD_POOL_HH
