/**
 * @file
 * The executor's flat-trace memo (bench/executor.h cachedFlatTrace):
 * one once-slot per behavior. Many threads asking for the same and
 * for distinct behaviors at once must get one attach-or-predecode per
 * behavior, the same FlatTrace object for every caller, and arenas
 * byte-identical to a serial FlatTrace::build.
 */

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "obs/metrics.h"
#include "trace/flat_trace.h"
#include "trace/synth.h"

namespace crw {
namespace bench {
namespace {

/**
 * @p n small synthetic behaviors no other test asks for: the memo is
 * process-wide, so only never-seen behaviors reach a build. They
 * differ in item count, not seed — the behavior key leaves the seed
 * out.
 */
std::vector<BehaviorId>
freshBehaviors(int items_base, std::size_t n)
{
    std::vector<BehaviorId> out;
    for (std::size_t i = 0; i < n; ++i) {
        SynthSpec spec;
        spec.topology = static_cast<SynthSpec::Topology>(i % 3);
        spec.items = items_base + static_cast<int>(i) * 8;
        out.push_back(BehaviorId::fromSynth(spec));
    }
    return out;
}

void
expectSameArena(const FlatTrace &got, const FlatTrace &want,
                const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(got.eventCount(), want.eventCount());
    ASSERT_EQ(got.threads.size(), want.threads.size());
    for (std::size_t t = 0; t < want.threads.size(); ++t) {
        EXPECT_EQ(got.threads[t].begin, want.threads[t].begin);
        EXPECT_EQ(got.threads[t].end, want.threads[t].end);
    }
    EXPECT_EQ(std::memcmp(got.ops, want.ops, want.events), 0);
    EXPECT_EQ(std::memcmp(got.operands, want.operands,
                          want.events * sizeof(std::uint64_t)),
              0);
}

/**
 * K threads released together, each asking for every behavior in its
 * own rotation, so the same behavior is requested concurrently and
 * distinct behaviors build side by side. Half the threads pass the
 * pre-resolved trace and checksum (the executor's fan-out), half use
 * the one-argument form over the already-captured trace memo.
 */
void
hammer(const std::vector<BehaviorId> &behaviors,
       std::vector<std::vector<const FlatTrace *>> &got)
{
    constexpr std::size_t kThreads = 8;
    std::vector<const EventTrace *> traces;
    std::vector<std::uint64_t> sums;
    for (const BehaviorId &b : behaviors) {
        traces.push_back(&cachedTrace(b));
        sums.push_back(cachedTraceChecksum(b));
    }

    got.assign(kThreads,
               std::vector<const FlatTrace *>(behaviors.size()));
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (std::size_t k = 0; k < behaviors.size(); ++k) {
                const std::size_t b = (t + k) % behaviors.size();
                got[t][b] = t % 2 == 0
                                ? &cachedFlatTrace(behaviors[b],
                                                   *traces[b], sums[b])
                                : &cachedFlatTrace(behaviors[b]);
            }
        });
    go.store(true, std::memory_order_release);
    for (std::thread &th : threads)
        th.join();
}

void
expectSharedAndSerialIdentical(
    const std::vector<BehaviorId> &behaviors,
    const std::vector<std::vector<const FlatTrace *>> &got)
{
    for (std::size_t b = 0; b < behaviors.size(); ++b) {
        const FlatTrace *first = got[0][b];
        ASSERT_NE(first, nullptr);
        for (std::size_t t = 1; t < got.size(); ++t)
            EXPECT_EQ(got[t][b], first)
                << behaviors[b].key() << " thread " << t;
        const FlatTrace serial =
            FlatTrace::build(cachedTrace(behaviors[b]));
        expectSameArena(*first, serial, behaviors[b].key());
    }
}

TEST(FlatMemo, ConcurrentCallersShareOnePredecodePerBehavior)
{
    // Store off: every build is an in-memory predecode, so the
    // counter delta is exactly one per behavior.
    setFlatCacheEnabled(false);
    const std::vector<BehaviorId> behaviors =
        freshBehaviors(25, 5);
    const std::uint64_t predecodes =
        metrics().counterValue("flat.predecode");
    const std::uint64_t attaches = metrics().counterValue("flat.attach");

    std::vector<std::vector<const FlatTrace *>> got;
    hammer(behaviors, got);
    setFlatCacheEnabled(true);

    EXPECT_EQ(metrics().counterValue("flat.predecode"),
              predecodes + behaviors.size());
    EXPECT_EQ(metrics().counterValue("flat.attach"), attaches);
    expectSharedAndSerialIdentical(behaviors, got);
}

TEST(FlatMemo, ConcurrentCallersStoreOrAttachOncePerBehavior)
{
    // Store on: each behavior is attached (a file left by an earlier
    // run of this test) or predecoded and stored — exactly once, with
    // the distinct behaviors writing their arena files concurrently.
    const std::vector<BehaviorId> behaviors =
        freshBehaviors(29, 5);
    const std::uint64_t predecodes =
        metrics().counterValue("flat.predecode");
    const std::uint64_t stores = metrics().counterValue("flat.store");
    const std::uint64_t attaches = metrics().counterValue("flat.attach");

    std::vector<std::vector<const FlatTrace *>> got;
    hammer(behaviors, got);

    const std::uint64_t built =
        metrics().counterValue("flat.predecode") - predecodes;
    EXPECT_EQ(built + metrics().counterValue("flat.attach") - attaches,
              behaviors.size());
    EXPECT_EQ(metrics().counterValue("flat.store") - stores, built);
    expectSharedAndSerialIdentical(behaviors, got);
}

} // namespace
} // namespace bench
} // namespace crw
