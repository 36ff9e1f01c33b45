/** @file Unit tests for the thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace
{

using namespace ff;

TEST(ThreadPool, ReportsRequestedThreadCount)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<unsigned>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ThreadPool, ParallelForWritesAreVisibleAndOrdered)
{
    // Results written to caller-indexed slots arrive intact: the
    // determinism contract of runBatch at the pool level.
    ThreadPool pool(4);
    constexpr std::size_t n = 500;
    std::vector<std::size_t> out(n, 0);
    pool.parallelFor(n, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ParallelForZeroItemsIsANoop)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<unsigned> ran{0};
    EXPECT_THROW(
        pool.parallelFor(64,
                         [&](std::size_t i) {
                             ran.fetch_add(1,
                                           std::memory_order_relaxed);
                             if (i == 13)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool must survive a throwing batch and accept more work.
    std::atomic<unsigned> after{0};
    pool.parallelFor(8, [&](std::size_t) {
        after.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(after.load(), 8u);
}

TEST(ThreadPool, WorkIsActuallyDistributed)
{
    // With indices that momentarily block, more than one thread must
    // participate.
    ThreadPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> seen;
    pool.parallelFor(64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lk(mu);
        seen.insert(std::this_thread::get_id());
    });
    EXPECT_GE(seen.size(), 1u);
    if (std::thread::hardware_concurrency() > 1) {
        EXPECT_GT(seen.size(), 1u);
    }
}

TEST(ThreadPool, BackToBackLoopsRunEveryIndexOnce)
{
    // Many short loops on one pool. A worker that wakes late must not
    // run an index of a loop that has returned, nor of the next one.
    ThreadPool pool(4);
    std::atomic<std::size_t> calls{0};
    std::size_t expected = 0;
    for (unsigned loop = 0; loop < 2000; ++loop) {
        const std::size_t n = 1 + loop % 9;
        std::vector<std::atomic<unsigned>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            calls.fetch_add(1, std::memory_order_relaxed);
        });
        expected += n;
        ASSERT_EQ(calls.load(), expected) << "loop " << loop;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u) << "loop " << loop << " index "
                                          << i;
    }
}

TEST(ThreadPool, LoopRunsOnTheCallerAndAtMostThreadCountWorkers)
{
    // simbench sizes its sampled sweep on this: N workers plus the
    // calling thread.
    ThreadPool pool(3);
    std::mutex mu;
    std::set<std::thread::id> seen;
    pool.parallelFor(64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lk(mu);
        seen.insert(std::this_thread::get_id());
    });
    EXPECT_LE(seen.size(), pool.threadCount() + 1);
    EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPool, DefaultJobCountIsPositive)
{
    EXPECT_GE(defaultJobCount(), 1u);
}

/** An FF_JOBS past UINT_MAX is malformed, not a count modulo 2^32. */
TEST(ThreadPool, FfJobsThatDoesNotFitIsIgnored)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned fallback = hw == 0 ? 1 : hw;
    const char *old = std::getenv("FF_JOBS");
    const bool had = old != nullptr;
    const std::string saved = had ? old : "";
    for (const char *v :
         {"4294967297", "4294967296", "99999999999999999999"}) {
        ::setenv("FF_JOBS", v, 1);
        EXPECT_EQ(defaultJobCount(), fallback) << v;
    }
    if (had)
        ::setenv("FF_JOBS", saved.c_str(), 1);
    else
        ::unsetenv("FF_JOBS");
}

} // namespace
