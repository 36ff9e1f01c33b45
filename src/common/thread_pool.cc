#include "common/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/cli_number.hh"
#include "common/engine_trace.hh"
#include "common/logging.hh"

namespace ff
{

unsigned
defaultJobCount()
{
    if (const char *env = std::getenv("FF_JOBS")) {
        unsigned v = 0;
        if (cli::tryParseNumber(env, v) && v > 0)
            return v;
        ff_warn("ignoring malformed FF_JOBS='", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
    : _threads(threads == 0 ? defaultJobCount() : threads)
{
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(_mu);
        _stop = true;
    }
    _wake.notify_all();
    for (std::thread &w : _workers)
        w.join();
}

void
ThreadPool::drain(const std::function<void(std::size_t)> &fn,
                  std::size_t n)
{
    for (;;) {
        const std::size_t i = _next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(_mu);
            if (!_error)
                _error = std::current_exception();
        }
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    engine::laneName("worker-" + std::to_string(self));
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(_mu);
    for (;;) {
        // A worker that wakes after its loop closed finds _fn null and
        // sleeps on; one that already helped waits for the next loop.
        _wake.wait(lk, [&] {
            return _stop || (_fn != nullptr && _loop != seen);
        });
        if (_stop)
            return;
        seen = _loop;
        const std::function<void(std::size_t)> &fn = *_fn;
        const std::size_t n = _n;
        ++_helpers;
        lk.unlock();
        drain(fn, n);
        lk.lock();
        if (--_helpers == 0)
            _done.notify_one();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const std::size_t wanted = std::min<std::size_t>(_threads, n - 1);
    while (_workers.size() < wanted) {
        const unsigned self = static_cast<unsigned>(_workers.size());
        _workers.emplace_back([this, self] { workerLoop(self); });
    }
    {
        std::lock_guard<std::mutex> lk(_mu);
        ff_panic_if(_fn != nullptr, "ThreadPool loops must not nest");
        _fn = &fn;
        _n = n;
        _next.store(0, std::memory_order_relaxed);
        ++_loop;
    }
    _wake.notify_all();

    drain(fn, n); // the caller participates instead of blocking idle

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lk(_mu);
        _fn = nullptr; // every index is claimed: close the loop
        _done.wait(lk, [this] { return _helpers == 0; });
        error = std::exchange(_error, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace ff
