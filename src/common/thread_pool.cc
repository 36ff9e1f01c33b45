#include "common/thread_pool.hh"

#include <cstdlib>
#include <string>

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
{
    if (threads == 0)
        threads = defaultJobCount();
    _queues.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        _queues.push_back(std::make_unique<WorkerQueue>());
    _workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        _workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(_sleepMu);
        _stop.store(true, std::memory_order_release);
    }
    _wake.notify_all();
    for (auto &w : _workers)
        w.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    Task t;
    t.fn = std::move(task);
    std::future<void> fut = t.done.get_future();

    // Round-robin placement spreads independent submissions; the
    // stealing protocol rebalances any skew.
    const unsigned home = _nextQueue.fetch_add(
                              1, std::memory_order_relaxed) %
                          static_cast<unsigned>(_queues.size());
    {
        std::lock_guard<std::mutex> lk(_queues[home]->mu);
        _queues[home]->q.push_back(std::move(t));
    }
    _queued.fetch_add(1, std::memory_order_release);
    _wake.notify_one();
    return fut;
}

bool
ThreadPool::takeTask(unsigned self, Task &out)
{
    // Own queue first, hot end.
    {
        WorkerQueue &mine = *_queues[self];
        std::lock_guard<std::mutex> lk(mine.mu);
        if (!mine.q.empty()) {
            out = std::move(mine.q.back());
            mine.q.pop_back();
            _queued.fetch_sub(1, std::memory_order_release);
            return true;
        }
    }
    // Steal the oldest task from the first non-empty victim.
    const unsigned n = static_cast<unsigned>(_queues.size());
    for (unsigned d = 1; d < n; ++d) {
        WorkerQueue &victim = *_queues[(self + d) % n];
        std::lock_guard<std::mutex> lk(victim.mu);
        if (!victim.q.empty()) {
            out = std::move(victim.q.front());
            victim.q.pop_front();
            _queued.fetch_sub(1, std::memory_order_release);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned self)
{
    engine::laneName("worker-" + std::to_string(self));
    for (;;) {
        Task t;
        if (takeTask(self, t)) {
            try {
                t.fn();
                t.done.set_value();
            } catch (...) {
                t.done.set_exception(std::current_exception());
            }
            continue;
        }
        std::unique_lock<std::mutex> lk(_sleepMu);
        _wake.wait(lk, [this] {
            return _stop.load(std::memory_order_acquire) ||
                   _queued.load(std::memory_order_acquire) != 0;
        });
        if (_stop.load(std::memory_order_acquire) &&
            _queued.load(std::memory_order_acquire) == 0) {
            return;
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    // Shared claim counter: each participant takes the next unclaimed
    // index. Work assignment is nondeterministic; callers regain
    // determinism by writing results into slot [i].
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto first_error = std::make_shared<std::once_flag>();
    auto error = std::make_shared<std::exception_ptr>();

    auto drain = [next, first_error, error, &fn, n] {
        for (;;) {
            const std::size_t i =
                next->fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::call_once(*first_error, [&] {
                    *error = std::current_exception();
                });
            }
        }
    };

    // One helper task per worker is enough: each drains the counter.
    std::vector<std::future<void>> helpers;
    const std::size_t fanout =
        n < _workers.size() ? n : _workers.size();
    helpers.reserve(fanout);
    for (std::size_t w = 0; w < fanout; ++w)
        helpers.push_back(submit(drain));

    drain(); // the caller participates instead of blocking idle

    for (auto &h : helpers)
        h.get();
    if (*error)
        std::rethrow_exception(*error);
}

} // namespace ff
