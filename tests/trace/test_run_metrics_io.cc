/**
 * @file
 * RunMetrics record encoding and its one container: bit-exact
 * round-trip of every field — including the Table-1 per-thread
 * counters and exact IEEE-754 double patterns — through
 * encodeMetricsRecord / decodeMetricsRecord, rejection of truncated,
 * padded or foreign-key payloads, and the damage modes the arena
 * result store must survive: a bad magic, a foreign payload version
 * and a corrupted record all read back as misses.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "store/record_store.h"
#include "trace/run_metrics.h"

namespace crw {
namespace {

/** A record exercising every field with distinct, odd values. */
RunMetrics
sampleMetrics()
{
    RunMetrics m;
    m.scheme = SchemeKind::SNP;
    m.policy = SchedPolicy::WorkingSet;
    m.windows = 11;
    m.totalCycles = 123456789012ull;
    m.switches = 60566;
    m.saves = 113015;
    m.restores = 113014;
    m.overflowTraps = 4321;
    m.underflowTraps = 1234;
    m.switchWindowsSaved = 777;
    m.switchWindowsRestored = 778;
    m.meanSwitchCost = 118.25;
    m.trapProbability = 0.1 + 0.2; // deliberately not exactly 0.3
    m.activityPerQuantum = 2.5;
    m.totalWindowActivity = 17.75;
    m.concurrency = 3.9999999999999996;
    m.meanSlackness = 0.125;
    m.misspelled = 42;
    for (int t = 0; t < 7; ++t) {
        ThreadCounters c;
        c.saves = 1000u * static_cast<std::uint64_t>(t) + 1;
        c.restores = 1000u * static_cast<std::uint64_t>(t) + 2;
        c.switchesIn = 1000u * static_cast<std::uint64_t>(t) + 3;
        m.perThread.push_back(c);
    }
    return m;
}

const char kKey[] = "HC-fine-m1-n1|SNP|w11|prw=eager|alloc=simple|"
                    "cm=test|ws|trace=0123456789abcdef|v1";

/** Store geometry for the temp stores below. */
constexpr std::size_t kSlots = 64;
constexpr std::size_t kDataBytes = 1 << 16;

class RunMetricsFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per process and per test: ctest -j runs every test
        // of this fixture as its own concurrent process.
        const ::testing::TestInfo *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        const std::string name = "crw_test_run_metrics_" +
                                 std::to_string(::getpid()) + "_" +
                                 test->name() + ".crwstore";
        path_ = (std::filesystem::temp_directory_path() / name).string();
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Encode and decode @p m under kKey: false if decode refuses. */
    static bool
    roundTrip(const RunMetrics &m, RunMetrics &out)
    {
        const std::vector<std::uint8_t> bytes = encodeMetricsRecord(m, kKey);
        return decodeMetricsRecord(bytes.data(), bytes.size(), kKey, out);
    }

    /**
     * A store at path_ holding sampleMetrics() under kKey, closed
     * again; @p offset receives the record's file offset.
     */
    void
    writeStore(std::uint32_t app_version, std::uint64_t *offset = nullptr)
    {
        store::RecordStore st;
        ASSERT_TRUE(st.open(path_, app_version, kSlots, kDataBytes));
        ASSERT_TRUE(st.writable());
        ASSERT_TRUE(st.put(kKey, encodeMetricsRecord(sampleMetrics(), kKey)));
        std::vector<std::uint8_t> blob;
        ASSERT_EQ(st.find(kKey, blob, offset),
                  store::RecordStore::FindResult::Hit);
    }

    /** Flip byte @p at of the file at path_. */
    void
    flipByte(std::uint64_t at) const
    {
        std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(static_cast<std::streamoff>(at));
        char c = 0;
        f.get(c);
        f.seekp(static_cast<std::streamoff>(at));
        f.put(static_cast<char>(c ^ 0x5A));
    }

    /** Reopen path_ as the current format's writer and probe kKey. */
    store::RecordStore::FindResult
    reopenAndFind(RunMetrics &out) const
    {
        store::RecordStore st;
        EXPECT_TRUE(st.open(path_, kRunMetricsFormatVersion, kSlots,
                            kDataBytes));
        std::vector<std::uint8_t> blob;
        const store::RecordStore::FindResult found = st.find(kKey, blob);
        if (found == store::RecordStore::FindResult::Hit &&
            !decodeMetricsRecord(blob.data(), blob.size(), kKey, out))
            ADD_FAILURE() << "a validated record failed to decode";
        return found;
    }

    std::string path_;
};

TEST_F(RunMetricsFile, RoundTripIsBitIdentical)
{
    const RunMetrics m = sampleMetrics();
    RunMetrics loaded;
    ASSERT_TRUE(roundTrip(m, loaded));
    EXPECT_TRUE(metricsBitIdentical(m, loaded));

    // Spot-check the per-thread Table-1 counters survived in order.
    ASSERT_EQ(loaded.perThread.size(), 7u);
    EXPECT_EQ(loaded.perThread[0].saves, 1u);
    EXPECT_EQ(loaded.perThread[6].saves, 6001u);
    EXPECT_EQ(loaded.perThread[6].restores, 6002u);
    EXPECT_EQ(loaded.perThread[6].switchesIn, 6003u);
    // And that doubles really are the same bit pattern, not a
    // printf-precision approximation.
    EXPECT_EQ(loaded.trapProbability, 0.1 + 0.2);
    EXPECT_EQ(loaded.concurrency, 3.9999999999999996);
}

TEST_F(RunMetricsFile, RoundTripPreservesNonFiniteDoubles)
{
    // A pathological record must still round-trip bit-exactly:
    // metricsBitIdentical is NaN-safe by design.
    RunMetrics m = sampleMetrics();
    m.meanSwitchCost = std::nan("");
    m.meanSlackness = std::numeric_limits<double>::infinity();
    RunMetrics loaded;
    ASSERT_TRUE(roundTrip(m, loaded));
    EXPECT_TRUE(metricsBitIdentical(m, loaded));
    EXPECT_TRUE(std::isnan(loaded.meanSwitchCost));
    EXPECT_TRUE(std::isinf(loaded.meanSlackness));
}

TEST_F(RunMetricsFile, EmptyPerThreadRoundTrips)
{
    RunMetrics m = sampleMetrics();
    m.perThread.clear();
    RunMetrics loaded;
    ASSERT_TRUE(roundTrip(m, loaded));
    EXPECT_TRUE(metricsBitIdentical(m, loaded));
    EXPECT_TRUE(loaded.perThread.empty());
}

TEST_F(RunMetricsFile, MissingFileFails)
{
    // A store path that cannot be created leaves the store Invalid:
    // it reports why, and every probe is a plain miss.
    store::RecordStore st;
    std::string err;
    EXPECT_FALSE(st.open("/nonexistent/dir/none.crwstore",
                         kRunMetricsFormatVersion, kSlots, kDataBytes,
                         &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(st.valid());
    std::vector<std::uint8_t> blob;
    EXPECT_EQ(st.find(kKey, blob), store::RecordStore::FindResult::Miss);
    EXPECT_FALSE(st.put(kKey, encodeMetricsRecord(sampleMetrics(), kKey)));
}

TEST_F(RunMetricsFile, BadMagicRejected)
{
    // A file that is not a store is never read as one: the writer
    // reformats it, so the old record is gone.
    writeStore(kRunMetricsFormatVersion);
    flipByte(0);

    RunMetrics out;
    EXPECT_EQ(reopenAndFind(out), store::RecordStore::FindResult::Miss);
}

TEST_F(RunMetricsFile, UnknownVersionRejected)
{
    // A store stamped with another payload version holds records this
    // build cannot decode: reopening under the current version drops
    // them all instead of misreading them.
    writeStore(kRunMetricsFormatVersion + 1);

    RunMetrics out;
    EXPECT_EQ(reopenAndFind(out), store::RecordStore::FindResult::Miss);
    store::RecordStore st;
    ASSERT_TRUE(st.open(path_, kRunMetricsFormatVersion, kSlots,
                        kDataBytes));
    EXPECT_EQ(st.stats().appVersion, kRunMetricsFormatVersion);
    EXPECT_EQ(st.stats().entries, 0u);
}

TEST_F(RunMetricsFile, TruncationRejected)
{
    std::vector<std::uint8_t> bytes =
        encodeMetricsRecord(sampleMetrics(), kKey);
    ASSERT_GT(bytes.size(), 9u);
    RunMetrics out;
    for (const std::size_t keep :
         {bytes.size() - 9, bytes.size() - 1, std::size_t{3},
          std::size_t{0}})
        EXPECT_FALSE(decodeMetricsRecord(bytes.data(), keep, kKey, out))
            << keep;
}

TEST_F(RunMetricsFile, PayloadCorruptionRejected)
{
    // Flip one payload byte mid-record: the store's record checksum
    // must catch it and report the slot corrupt.
    std::uint64_t offset = 0;
    writeStore(kRunMetricsFormatVersion, &offset);
    const std::size_t payload =
        encodeMetricsRecord(sampleMetrics(), kKey).size();
    // Record: u32 keyLen | key | u32 blobLen | blob | u64 checksum.
    flipByte(offset + 8 + (sizeof kKey - 1) + payload / 2);

    RunMetrics out;
    EXPECT_EQ(reopenAndFind(out),
              store::RecordStore::FindResult::Corrupt);
}

TEST_F(RunMetricsFile, ForeignIdentityKeyRejected)
{
    // A record stored under one key must not load under another —
    // this is what turns an index collision into a plain cache miss
    // instead of an aliased result.
    const std::vector<std::uint8_t> bytes =
        encodeMetricsRecord(sampleMetrics(), kKey);
    RunMetrics out;
    EXPECT_FALSE(decodeMetricsRecord(bytes.data(), bytes.size(),
                                     std::string(kKey) + "-other", out));
    // The honest key still works.
    EXPECT_TRUE(decodeMetricsRecord(bytes.data(), bytes.size(), kKey, out));
}

TEST_F(RunMetricsFile, TrailingGarbageRejected)
{
    std::vector<std::uint8_t> bytes =
        encodeMetricsRecord(sampleMetrics(), kKey);
    bytes.insert(bytes.end(), 4, 0);

    RunMetrics out;
    EXPECT_FALSE(decodeMetricsRecord(bytes.data(), bytes.size(), kKey, out));
}

TEST_F(RunMetricsFile, FuzzedFilesNeverCrashTheLoader)
{
    // Deterministic corruption fuzz, mirroring the EventTrace one:
    // single-bit flips and truncations must decode cleanly or fail
    // gracefully — never crash. The payload carries no checksum of
    // its own (the store's record checksum guards it), so a flip in a
    // counter decodes; whatever decodes must re-encode to exactly the
    // fuzzed bytes.
    const std::vector<std::uint8_t> original =
        encodeMetricsRecord(sampleMetrics(), kKey);
    ASSERT_GT(original.size(), 24u);

    std::uint64_t rng = 0x1993ull;
    const auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> bytes = original;
        if (i % 2 == 0) {
            const std::size_t at = next() % bytes.size();
            bytes[at] = static_cast<std::uint8_t>(
                bytes[at] ^ (1u << (next() % 8)));
        } else {
            bytes.resize(next() % bytes.size());
        }
        RunMetrics out;
        if (decodeMetricsRecord(bytes.data(), bytes.size(), kKey, out)) {
            EXPECT_EQ(encodeMetricsRecord(out, kKey), bytes) << i;
        }
    }
}

TEST(MetricsBitIdentical, CatchesEveryFieldIndividually)
{
    const RunMetrics base = sampleMetrics();
    EXPECT_TRUE(metricsBitIdentical(base, base));

    RunMetrics m = base;
    m.totalCycles += 1;
    EXPECT_FALSE(metricsBitIdentical(base, m));

    m = base;
    m.meanSwitchCost = std::nextafter(m.meanSwitchCost, 1e9);
    EXPECT_FALSE(metricsBitIdentical(base, m));

    m = base;
    m.perThread[3].switchesIn += 1;
    EXPECT_FALSE(metricsBitIdentical(base, m));

    m = base;
    m.perThread.pop_back();
    EXPECT_FALSE(metricsBitIdentical(base, m));
}

} // namespace
} // namespace crw
