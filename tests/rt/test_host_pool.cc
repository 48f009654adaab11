/**
 * @file
 * HostPool (rt/host_pool.h): the process-lifetime worker pool behind
 * ParallelSweep. Every index must run exactly once regardless of the
 * worker count, workers claim one index at a time (a slow task holds
 * back nothing but itself), the first task exception must be
 * rethrown on the caller after the job drains, and the pool must stay
 * reusable after both completion and failure.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "rt/host_pool.h"

namespace crw {
namespace {

struct CountCtx
{
    std::vector<std::atomic<int>> hits;
    explicit CountCtx(std::size_t n) : hits(n) {}
};

void
countTask(void *ctx, std::size_t index, int)
{
    static_cast<CountCtx *>(ctx)->hits[index].fetch_add(1);
}

TEST(HostPool, EveryIndexRunsExactlyOnce)
{
    for (const int workers : {1, 2, 4, 13}) {
        CountCtx ctx(97);
        HostPool::instance().run(ctx.hits.size(), workers, countTask,
                                 &ctx);
        for (std::size_t i = 0; i < ctx.hits.size(); ++i)
            EXPECT_EQ(ctx.hits[i].load(), 1)
                << "index " << i << " with " << workers << " workers";
    }
}

TEST(HostPool, ZeroCountIsANoop)
{
    CountCtx ctx(1);
    HostPool::instance().run(0, 4, countTask, &ctx);
    EXPECT_EQ(ctx.hits[0].load(), 0);
}

TEST(HostPool, MoreWorkersThanTasks)
{
    CountCtx ctx(3);
    HostPool::instance().run(ctx.hits.size(), 64, countTask, &ctx);
    for (std::size_t i = 0; i < ctx.hits.size(); ++i)
        EXPECT_EQ(ctx.hits[i].load(), 1) << "index " << i;
}

struct BlockCtx
{
    std::mutex mu;
    std::condition_variable cv;
    std::size_t count = 0;
    std::size_t othersRan = 0;
    bool othersRanFirst = false;
};

/** Task 0 blocks until every other task has run (bounded, so a pool
 *  that parks tasks behind it fails instead of hanging). */
void
blockTask(void *ctx, std::size_t index, int)
{
    BlockCtx &c = *static_cast<BlockCtx *>(ctx);
    std::unique_lock<std::mutex> lock(c.mu);
    if (index != 0) {
        if (++c.othersRan == c.count - 1)
            c.cv.notify_all();
        return;
    }
    c.othersRanFirst = c.cv.wait_for(
        lock, std::chrono::seconds(10),
        [&c] { return c.othersRan == c.count - 1; });
}

TEST(HostPool, ClaimsOneIndexAtATime)
{
    // Whichever worker claims task 0 is stuck in it; the other must be
    // able to claim every remaining index. A worker that claimed a
    // block of indices with task 0 would hold tasks 1.. behind it.
    BlockCtx ctx;
    ctx.count = 64;
    HostPool::instance().run(ctx.count, 2, blockTask, &ctx);
    EXPECT_TRUE(ctx.othersRanFirst);
    EXPECT_EQ(ctx.othersRan, ctx.count - 1);
}

struct ThrowCtx
{
    std::atomic<int> ran{0};
    std::size_t throwAt = 0;
};

void
throwTask(void *ctx, std::size_t index, int)
{
    ThrowCtx &c = *static_cast<ThrowCtx *>(ctx);
    c.ran.fetch_add(1);
    if (index == c.throwAt)
        throw std::runtime_error("task boom");
}

TEST(HostPool, TaskExceptionRethrownOnCaller)
{
    for (const int workers : {1, 4}) {
        ThrowCtx ctx;
        ctx.throwAt = 5;
        EXPECT_THROW(HostPool::instance().run(32, workers, throwTask,
                                              &ctx),
                     std::runtime_error)
            << workers << " workers";
        // The throwing task itself ran; unclaimed work may have been
        // abandoned, but nothing runs after run() returns.
        EXPECT_GE(ctx.ran.load(), 1) << workers << " workers";
    }
}

TEST(HostPool, ReusableAfterFailure)
{
    ThrowCtx bad;
    bad.throwAt = 0;
    EXPECT_THROW(HostPool::instance().run(8, 4, throwTask, &bad),
                 std::runtime_error);

    CountCtx good(64);
    HostPool::instance().run(good.hits.size(), 4, countTask, &good);
    for (std::size_t i = 0; i < good.hits.size(); ++i)
        EXPECT_EQ(good.hits[i].load(), 1) << "index " << i;
}

} // namespace
} // namespace crw
