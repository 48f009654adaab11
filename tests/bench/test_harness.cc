/**
 * @file
 * Bench harness hardening: strict $CRW_JOBS / --jobs parsing (the old
 * atoi-based path silently turned "8x" into 8 and "" into 0 workers),
 * and ParallelSweep's exception contract — a throwing sweep task must
 * surface on the caller as an ordinary exception (not std::terminate,
 * as the detached-thread design did), leaving the sweep reusable —
 * and its per-fan-out worker busy-time metric.
 */

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "obs/metrics.h"

namespace crw {
namespace bench {
namespace {

TEST(ParseJobs, UnsetReturnsFallbackSilently)
{
    EXPECT_EQ(parseJobs(nullptr, 3), 3);
}

TEST(ParseJobs, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseJobs("1", 7), 1);
    EXPECT_EQ(parseJobs("4", 7), 4);
    EXPECT_EQ(parseJobs("16", 7), 16);
    EXPECT_EQ(parseJobs("512", 7), 512); // kMaxJobs itself is legal
}

TEST(ParseJobs, RejectsNonPositive)
{
    EXPECT_EQ(parseJobs("0", 5), 5);
    EXPECT_EQ(parseJobs("-3", 5), 5);
}

TEST(ParseJobs, RejectsTrailingGarbageAndEmpty)
{
    // atoi would have accepted all of these.
    EXPECT_EQ(parseJobs("8x", 5), 5);
    EXPECT_EQ(parseJobs("4 ", 5), 5);
    EXPECT_EQ(parseJobs("", 5), 5);
    EXPECT_EQ(parseJobs("jobs", 5), 5);
    EXPECT_EQ(parseJobs("0x10", 5), 5);
    EXPECT_EQ(parseJobs("3.5", 5), 5);
}

TEST(ParseJobs, ClampsOversizedCounts)
{
    EXPECT_EQ(parseJobs("513", 1), kMaxJobs);
    EXPECT_EQ(parseJobs("99999", 1), kMaxJobs);
    // Past the strtol range entirely: ERANGE, same clamp-free
    // fallback path as any other unusable spelling is fine, but the
    // implementation clamps values it could parse — this one it
    // cannot, so it falls back.
    EXPECT_EQ(parseJobs("99999999999999999999", 2), 2);
}

TEST(ParallelSweep, RunsEveryIndexOnceAtAnyJobCount)
{
    for (const int jobs : {1, 3, 8}) {
        const ParallelSweep sweep(jobs);
        std::vector<std::atomic<int>> hits(41);
        sweep.run(hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " at jobs=" << jobs;
    }
}

TEST(ParallelSweep, TaskExceptionRethrownAndSweepReusable)
{
    for (const int jobs : {1, 4}) {
        const ParallelSweep sweep(jobs);
        EXPECT_THROW(sweep.run(16,
                               [](std::size_t i) {
                                   if (i == 3)
                                       throw std::runtime_error(
                                           "point failed");
                               }),
                     std::runtime_error)
            << "jobs=" << jobs;

        // The first failure must not poison later sweeps.
        std::atomic<int> ran{0};
        sweep.run(8, [&](std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 8) << "jobs=" << jobs;
    }
}

/** Sample count of host sample @p name (0 if never sampled). */
std::uint64_t
hostSampleCount(const std::string &name)
{
    return metrics().sampleSummary(name).count;
}

TEST(ParallelSweep, EachFanOutPublishesItsOwnWorkerBusyMetric)
{
    // --metrics-out turns the host samples on; nothing is written
    // unless benchFinish() runs.
    const char *argv[] = {"test_harness", "--metrics-out=unused.json"};
    ASSERT_TRUE(benchInit(2, argv));
    const std::uint64_t replay = hostSampleCount("host.worker_busy_s");
    ParallelSweep(3, "host.test_a.worker_busy_s")
        .run(9, [](std::size_t) {});
    ParallelSweep(2, "host.test_b.worker_busy_s")
        .run(9, [](std::size_t) {});
    const char *reset[] = {"test_harness"};
    ASSERT_TRUE(benchInit(1, reset));

    // One sample per worker, under the fan-out's own name only.
    EXPECT_EQ(hostSampleCount("host.test_a.worker_busy_s"), 3u);
    EXPECT_EQ(hostSampleCount("host.test_b.worker_busy_s"), 2u);
    EXPECT_EQ(hostSampleCount("host.worker_busy_s"), replay);
}

} // namespace
} // namespace bench
} // namespace crw
