/**
 * @file
 * The microtrace walk on the production engine view (bench/microtrace.h)
 * against two references:
 *
 *  - the oracle walk, the same random call-depth walk driven through
 *    the WindowEngine members (virtual scheme dispatch, one engine per
 *    walk), for every scheme the exhibit sweeps;
 *  - one view over the whole walk, for a walk chunked into a sequence
 *    of views, on the NS lane-SoA pass at every SIMD tier and on the
 *    per-lane pass of the sharing schemes.
 *
 * Each case is named for what it covers (scheme, depth, tier), so a
 * missing case shows up in the test list.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/microtrace.h"
#include "common/rng.h"
#include "win/engine.h"
#include "win/simd.h"

namespace crw {
namespace bench {
namespace {

/** A shortened walk: long enough for every lane to trap and flush. */
WalkShape
shortWalk(int max_depth)
{
    WalkShape walk;
    walk.maxDepth = max_depth;
    walk.quanta = 120;
    return walk;
}

/** The walk through the WindowEngine members, one engine at a time. */
void
oracleWalk(const WalkShape &walk, WindowEngine &engine)
{
    Rng rng(walk.seed);
    std::vector<int> depth(static_cast<std::size_t>(walk.threads), 1);
    for (ThreadId t = 0; t < walk.threads; ++t)
        engine.addThread(t);

    ThreadId current = 0;
    engine.contextSwitch(current);
    for (int q = 0; q < walk.quanta; ++q) {
        int &d = depth[static_cast<std::size_t>(current)];
        for (int s = 0; s < walk.stepsPerQuantum; ++s) {
            const bool up =
                d <= 1 || (d < walk.maxDepth && rng.nextBool(0.5));
            if (up) {
                engine.save();
                ++d;
            } else {
                engine.restore();
                --d;
            }
            engine.charge(kStepCharge);
        }
        const ThreadId next =
            static_cast<ThreadId>((current + 1) % walk.threads);
        engine.contextSwitch(next);
        current = next;
    }
}

/** Fresh engines of @p scheme, one per entry of @p windows. */
struct Lanes
{
    Lanes(SchemeKind scheme, const std::vector<int> &windows)
    {
        for (const int w : windows) {
            EngineConfig cfg;
            cfg.numWindows = w;
            cfg.scheme = scheme;
            owned.push_back(std::make_unique<WindowEngine>(cfg));
            ptrs.push_back(owned.back().get());
        }
    }

    void
    walk(const WalkShape &shape, int chunk_quanta)
    {
        runWalk(shape, ptrs.data(), ptrs.size(), chunk_quanta);
    }

    std::vector<std::unique_ptr<WindowEngine>> owned;
    std::vector<WindowEngine *> ptrs;
};

/**
 * Clock, every hot counter, the switch-cost distribution, the
 * switch-case histogram, the per-thread tallies and the window file.
 */
void
expectSameEngine(const WindowEngine &got, const WindowEngine &want,
                 int threads, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.now(), want.now());
    EXPECT_EQ(got.current(), want.current());
    const StatGroup &gs = got.stats();
    const StatGroup &ws = want.stats();
    // The same counter keys, not just the same values: a lane must
    // not create a counter (say "thread_exits") the members leave
    // absent, or StatGroup::dump of the two walks differs.
    std::vector<std::string> gotKeys, wantKeys;
    for (const auto &entry : gs.counters())
        gotKeys.push_back(entry.first);
    for (const auto &entry : ws.counters())
        wantKeys.push_back(entry.first);
    EXPECT_EQ(gotKeys, wantKeys);
    for (const auto &entry : ws.counters())
        EXPECT_EQ(gs.counterValue(entry.first), entry.second.value())
            << entry.first;
    ASSERT_EQ(gs.distributions().size(), ws.distributions().size());
    for (const auto &[name, dist] : ws.distributions()) {
        const Distribution &g = gs.distributions().at(name);
        EXPECT_EQ(g.count(), dist.count()) << name;
        EXPECT_EQ(g.sum(), dist.sum()) << name;
        EXPECT_EQ(g.min(), dist.min()) << name;
        EXPECT_EQ(g.max(), dist.max()) << name;
    }
    EXPECT_EQ(got.switchCases(), want.switchCases());
    for (ThreadId t = 0; t < threads; ++t) {
        const ThreadCounters &gc = got.threadCounters(t);
        const ThreadCounters &wc = want.threadCounters(t);
        EXPECT_EQ(gc.saves, wc.saves) << "thread " << t;
        EXPECT_EQ(gc.restores, wc.restores) << "thread " << t;
        EXPECT_EQ(gc.switchesIn, wc.switchesIn) << "thread " << t;
        const ThreadWindows &gt = got.file().thread(t);
        const ThreadWindows &wt = want.file().thread(t);
        EXPECT_EQ(gt.top, wt.top) << "thread " << t;
        EXPECT_EQ(gt.resident, wt.resident) << "thread " << t;
        EXPECT_EQ(gt.prw, wt.prw) << "thread " << t;
        EXPECT_EQ(gt.depth, wt.depth) << "thread " << t;
    }
    ASSERT_EQ(got.numWindows(), want.numWindows());
    for (WindowIndex w = 0; w < want.numWindows(); ++w) {
        EXPECT_EQ(got.file().state(w), want.file().state(w))
            << "slot " << w;
        if (want.file().state(w) != WinState::Free) {
            EXPECT_EQ(got.file().owner(w), want.file().owner(w))
                << "slot " << w;
        }
    }
}

std::string
windowsName(const std::vector<int> &windows)
{
    std::string name;
    for (const int w : windows)
        name += (name.empty() ? "w" : "/w") + std::to_string(w);
    return name;
}

// --- lockstep walk vs the oracle walk ---------------------------------

struct OracleCase
{
    SchemeKind scheme;
    int maxDepth;
};

class WalkVsOracle : public ::testing::TestWithParam<OracleCase>
{};

TEST_P(WalkVsOracle, EveryLaneMatchesItsOracleWalk)
{
    const OracleCase c = GetParam();
    const WalkShape walk = shortWalk(c.maxDepth);
    // Every window count leads once and follows twice.
    const std::vector<std::vector<int>> orders = {
        {4, 8, 32}, {8, 32, 4}, {32, 4, 8}};
    for (const std::vector<int> &windows : orders) {
        Lanes lanes(c.scheme, windows);
        lanes.walk(walk, kWalkChunkQuanta);
        for (std::size_t l = 0; l < windows.size(); ++l) {
            EngineConfig cfg;
            cfg.numWindows = windows[l];
            cfg.scheme = c.scheme;
            WindowEngine oracle(cfg);
            oracleWalk(walk, oracle);
            if (windows[l] == 4) { // the walk exercises the file
                EXPECT_GT(oracle.stats().counterValue("overflow_traps"),
                          0u);
            }
            expectSameEngine(*lanes.ptrs[l], oracle, walk.threads,
                             windowsName(windows) + " lane " +
                                 std::to_string(l));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, WalkVsOracle,
    ::testing::Values(OracleCase{SchemeKind::NS, 4},
                      OracleCase{SchemeKind::NS, 8},
                      OracleCase{SchemeKind::SNP, 4},
                      OracleCase{SchemeKind::SNP, 8},
                      OracleCase{SchemeKind::SP, 4},
                      OracleCase{SchemeKind::SP, 8}),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return std::string(schemeName(info.param.scheme)) + "_d" +
               std::to_string(info.param.maxDepth);
    });

// --- a chunked sequence of views vs one whole-walk view ---------------

struct ChunkCase
{
    SchemeKind scheme;
    /** The follower pass: NS takes the lane-SoA pass on the vector
     *  tiers (clamped to what the CPU supports), per lane on Scalar;
     *  the sharing schemes run per lane on every tier. */
    SimdTier tier;
};

class ChunkedWalk : public ::testing::TestWithParam<ChunkCase>
{
  protected:
    void SetUp() override { setSimdTierOverride(GetParam().tier); }
    void TearDown() override { clearSimdTierOverride(); }
};

TEST_P(ChunkedWalk, ChunkedViewsMatchOneWholeWalkView)
{
    const ChunkCase c = GetParam();
    const std::vector<int> windows = {4, 5, 8, 12, 32};
    for (const int depth : {4, 8}) {
        const WalkShape walk = shortWalk(depth);
        Lanes whole(c.scheme, windows);
        whole.walk(walk, walk.quanta);
        // Chunks that do not divide the walk, down to one quantum per
        // view, so some views start mid-flush of a deep thread.
        for (const int chunk : {1, 7, kWalkChunkQuanta}) {
            Lanes chunked(c.scheme, windows);
            chunked.walk(walk, chunk);
            for (std::size_t l = 0; l < windows.size(); ++l)
                expectSameEngine(*chunked.ptrs[l], *whole.ptrs[l],
                                 walk.threads,
                                 "depth " + std::to_string(depth) +
                                     ", chunk " + std::to_string(chunk) +
                                     ", w" + std::to_string(windows[l]));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    FollowerPasses, ChunkedWalk,
    ::testing::Values(ChunkCase{SchemeKind::NS, SimdTier::Scalar},
                      ChunkCase{SchemeKind::NS, SimdTier::Sse2},
                      ChunkCase{SchemeKind::NS, SimdTier::Avx2},
                      ChunkCase{SchemeKind::SNP, SimdTier::Scalar},
                      ChunkCase{SchemeKind::SP, SimdTier::Scalar}),
    [](const ::testing::TestParamInfo<ChunkCase> &info) {
        const ChunkCase &c = info.param;
        return std::string(schemeName(c.scheme)) + "_" +
               (c.scheme == SchemeKind::NS ? simdTierName(c.tier)
                                           : "per_lane");
    });

} // namespace
} // namespace bench
} // namespace crw
