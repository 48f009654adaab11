/**
 * @file
 * The experiment-plan layer and the on-disk point-result cache:
 *
 *  - pointConfigKey / resultCacheKey name every result-affecting
 *    component (behavior, scheme, windows, PRW reclamation, allocation
 *    policy, cost model, policy, trace checksum, format version) and
 *    nothing else (checkInvariants);
 *  - ExperimentPlan dedupes and digests order-independently;
 *  - a cache hit is bit-identical to a fresh replay across a
 *    scheme x windows matrix;
 *  - a corrupted, truncated or colliding entry degrades to a miss,
 *    never to an error or an aliased result.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "bench/result_cache.h"
#include "obs/metrics.h"
#include "store/record_store.h"
#include "trace/run_metrics.h"

namespace crw {
namespace bench {
namespace {

/**
 * Point the process-wide result store at a test-private file before
 * anything opens it (it is a function-local static, created on first
 * use): the suite must not inherit — or pollute — a real
 * bench_out/results/store.crwstore.
 */
const bool g_privateStore = [] {
    std::filesystem::create_directories("bench_out/results");
    static char env[128];
    std::snprintf(env, sizeof env,
                  "CRW_RESULT_STORE=bench_out/results/test-%d.crwstore",
                  static_cast<int>(::getpid()));
    ::putenv(env);
    return true;
}();

/** The high-concurrency, fine-granularity spell-checker behavior. */
BehaviorId
highFine()
{
    return BehaviorId::spell(ConcurrencyLevel::High,
                             GranularityLevel::Fine);
}

PlanPoint
basePoint()
{
    return makePlanPoint(highFine(), SchemeKind::SP, 8,
                         SchedPolicy::Fifo);
}

/** Synthetic record for pure serialization-level cache tests. */
RunMetrics
syntheticMetrics()
{
    RunMetrics m;
    m.scheme = SchemeKind::SP;
    m.policy = SchedPolicy::Fifo;
    m.windows = 8;
    m.totalCycles = 987654321;
    m.switches = 11;
    m.meanSwitchCost = 118.5;
    ThreadCounters t;
    t.saves = 7;
    t.restores = 8;
    t.switchesIn = 9;
    m.perThread.push_back(t);
    return m;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// --- key structure ---

TEST(PointConfigKey, NamesEveryResultAffectingComponent)
{
    const std::string base = pointConfigKey(basePoint());

    PlanPoint p = basePoint();
    p.behavior.conc = ConcurrencyLevel::Low;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.behavior.gran = GranularityLevel::Coarse;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.scheme = SchemeKind::SNP;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.numWindows = 9;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.prwReclaim = PrwReclaim::Lazy;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.allocPolicy = AllocPolicy::FreeSearch;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.cost.sp.base += 1;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.engine.cost.transferSave += 1;
    EXPECT_NE(pointConfigKey(p), base);

    p = basePoint();
    p.policy = SchedPolicy::WorkingSet;
    EXPECT_NE(pointConfigKey(p), base);
}

TEST(PointConfigKey, IgnoresCheckInvariants)
{
    // checkInvariants can only abort a run, never change its numbers:
    // flipping it must hit the same cache slot.
    PlanPoint p = basePoint();
    p.engine.checkInvariants = !p.engine.checkInvariants;
    EXPECT_EQ(pointConfigKey(p), pointConfigKey(basePoint()));
}

TEST(ResultCacheKey, AppendsChecksumAndFormatVersion)
{
    const std::string point_key = pointConfigKey(basePoint());
    const std::string key =
        resultCacheKey(point_key, 0x0123456789abcdefull);
    EXPECT_EQ(key.find(point_key), 0u);
    EXPECT_NE(key.find("trace=0123456789abcdef"), std::string::npos)
        << key;
    EXPECT_NE(key.find("|v" +
                       std::to_string(kRunMetricsFormatVersion)),
              std::string::npos)
        << key;
    // The trace checksum invalidates on its own.
    EXPECT_NE(resultCacheKey(point_key, 1), key);
}

TEST(ResultCacheKey, PathIsDeterministicAndDistinct)
{
    const std::string a = resultCacheKey(pointConfigKey(basePoint()), 1);
    PlanPoint q = basePoint();
    q.engine.numWindows = 9;
    const std::string b = resultCacheKey(pointConfigKey(q), 1);
    EXPECT_EQ(resultCachePath(a), resultCachePath(a));
    EXPECT_NE(resultCachePath(a), resultCachePath(b));
    EXPECT_NE(resultCachePath(a).find("results/"), std::string::npos);
}

// --- plan dedupe and digest ---

TEST(ExperimentPlan, DedupesByKeyAndDigestsOrderIndependently)
{
    ExperimentPlan a;
    a.add(basePoint());
    a.add(basePoint()); // duplicate: no-op
    a.addSweep(highFine(), SchedPolicy::Fifo,
               {SchemeKind::SP, SchemeKind::NS}, {4, 8});
    // basePoint() == (SP, 8) is already in the sweep.
    EXPECT_EQ(a.size(), 4u);

    ExperimentPlan b;
    b.addSweep(highFine(), SchedPolicy::Fifo,
               {SchemeKind::NS, SchemeKind::SP}, {8, 4});
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.digest().size(), 16u);

    b.add(makePlanPoint(BehaviorId::spell(ConcurrencyLevel::Low,
                                          GranularityLevel::Fine),
                        SchemeKind::SP, 8, SchedPolicy::Fifo));
    EXPECT_NE(a.digest(), b.digest());
}

// --- store/load on synthetic records ---

class ResultCacheFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        key_ = resultCacheKey(pointConfigKey(basePoint()),
                              0xfeedfacecafebeefull);
        path_ = resultCachePath(key_);
        removeCachedResult(key_);
    }

    void TearDown() override { removeCachedResult(key_); }

    std::string key_;
    std::string path_;
};

TEST_F(ResultCacheFile, MissingEntryIsAMiss)
{
    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out));
}

TEST_F(ResultCacheFile, StoreThenLoadIsBitIdentical)
{
    const RunMetrics m = syntheticMetrics();
    ASSERT_TRUE(storeCachedResult(key_, m));
    RunMetrics out;
    ASSERT_TRUE(loadCachedResult(key_, out));
    EXPECT_TRUE(metricsBitIdentical(m, out));
}

TEST_F(ResultCacheFile, CorruptLegacyEntryIsAMissAndRecoverable)
{
    // Damage on the legacy migration path: plant a per-file entry,
    // flip one byte. The load must degrade to a miss (counting
    // cache.corrupt), and a re-store must overwrite the damage.
    ASSERT_TRUE(saveMetricsFile(syntheticMetrics(), key_, path_));
    std::vector<char> bytes = readAll(path_);
    ASSERT_GT(bytes.size(), 20u);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
    writeAll(path_, bytes);

    const std::uint64_t corrupt0 =
        metrics().counterValue("cache.corrupt");
    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out)); // silent miss
    EXPECT_GT(metrics().counterValue("cache.corrupt"), corrupt0);
    ASSERT_TRUE(storeCachedResult(key_, syntheticMetrics()));
    EXPECT_TRUE(loadCachedResult(key_, out));
}

TEST_F(ResultCacheFile, TruncatedLegacyEntryIsAMiss)
{
    ASSERT_TRUE(saveMetricsFile(syntheticMetrics(), key_, path_));
    std::vector<char> bytes = readAll(path_);
    bytes.resize(bytes.size() / 2);
    writeAll(path_, bytes);

    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out));
}

TEST_F(ResultCacheFile, CorruptStoreRecordIsAMissAndCounted)
{
    // Regression: a damaged record inside the arena-backed store must
    // bump cache.corrupt and degrade to a miss, never crash or serve
    // bad bytes (the record checksum covers key and payload).
    ASSERT_TRUE(storeCachedResult(key_, syntheticMetrics()));
    std::vector<std::uint8_t> blob;
    std::uint64_t offset = 0;
    ASSERT_EQ(resultStore().find(key_, blob, &offset),
              store::RecordStore::FindResult::Hit);
    ASSERT_FALSE(blob.empty());

    // Flip one payload byte through the file; the store's mapping is
    // MAP_SHARED, so the in-process view sees it immediately.
    {
        std::fstream f(resultStorePath(),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(static_cast<std::streamoff>(offset) + 8 +
                static_cast<std::streamoff>(key_.size()));
        char c = 0;
        f.get(c);
        f.seekp(static_cast<std::streamoff>(offset) + 8 +
                static_cast<std::streamoff>(key_.size()));
        f.put(static_cast<char>(c ^ 0x5A));
    }

    const std::uint64_t corrupt0 =
        metrics().counterValue("cache.corrupt");
    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(key_, out));
    EXPECT_GT(metrics().counterValue("cache.corrupt"), corrupt0);
    // The executor's re-store heals the slot.
    ASSERT_TRUE(storeCachedResult(key_, syntheticMetrics()));
    EXPECT_TRUE(loadCachedResult(key_, out));
}

TEST_F(ResultCacheFile, LegacyFileIsPromotedToStore)
{
    ASSERT_TRUE(saveMetricsFile(syntheticMetrics(), key_, path_));
    RunMetrics out;
    ASSERT_TRUE(loadCachedResult(key_, out)); // legacy hit + promote
    std::remove(path_.c_str());
    RunMetrics again;
    ASSERT_TRUE(loadCachedResult(key_, again)) // now store-resident
        << "promotion did not reach the store";
    EXPECT_TRUE(metricsBitIdentical(out, again));
}

TEST_F(ResultCacheFile, FileNameCollisionDegradesToMiss)
{
    // Simulate two keys hashing to the same legacy file: plant key
    // A's entry at key B's path. The stored identity key must reject
    // it (the record store performs the same in-record key check).
    const std::string other_key = resultCacheKey(
        pointConfigKey(basePoint()), 0x1111111111111111ull);
    const std::string other_path = resultCachePath(other_key);
    ASSERT_TRUE(
        saveMetricsFile(syntheticMetrics(), key_, other_path));

    RunMetrics out;
    EXPECT_FALSE(loadCachedResult(other_key, out));
    std::remove(other_path.c_str());
}

TEST(ResultCacheToggle, FlagRoundTrips)
{
    EXPECT_TRUE(resultCacheEnabled());
    setResultCacheEnabled(false);
    EXPECT_FALSE(resultCacheEnabled());
    setResultCacheEnabled(true);
    EXPECT_TRUE(resultCacheEnabled());
}

// --- cache hits versus fresh replays, on the real workload ---

TEST(ResultCacheReplay, HitIsBitIdenticalToFreshReplay)
{
    const EventTrace &trace = cachedTrace(highFine());
    const std::uint64_t checksum = cachedTraceChecksum(highFine());

    for (const SchemeKind scheme : evaluatedSchemes()) {
        for (const int windows : {4, 8}) {
            const PlanPoint p = makePlanPoint(highFine(), scheme,
                                              windows, SchedPolicy::Fifo);
            const std::string key =
                resultCacheKey(pointConfigKey(p), checksum);

            const RunMetrics fresh =
                replayPoint(trace, p.engine, p.policy);
            ASSERT_TRUE(storeCachedResult(key, fresh));

            RunMetrics hit;
            ASSERT_TRUE(loadCachedResult(key, hit))
                << pointConfigKey(p);
            EXPECT_TRUE(metricsBitIdentical(fresh, hit))
                << pointConfigKey(p);

            // Replay determinism backs the whole scheme: a second
            // live replay is bit-identical too.
            const RunMetrics again =
                replayPoint(trace, p.engine, p.policy);
            EXPECT_TRUE(metricsBitIdentical(fresh, again))
                << pointConfigKey(p);

            removeCachedResult(key);
        }
    }
}

TEST(ResultCacheReplay, ExecutorServesPlannedPoints)
{
    ExperimentPlan plan;
    plan.addSweep(highFine(), SchedPolicy::Fifo, evaluatedSchemes(),
                  {4, 8});
    executePlan(plan);
    for (const PlanPoint &p : plan.points()) {
        const RunMetrics &m = pointResult(p);
        EXPECT_EQ(m.scheme, p.engine.scheme);
        EXPECT_EQ(m.windows, p.engine.numWindows);
        EXPECT_GT(m.totalCycles, 0u);
        // Same coordinate, same slot: the reference is stable.
        EXPECT_EQ(&pointResult(p), &m);
    }
}

} // namespace
} // namespace bench
} // namespace crw
