/**
 * @file
 * RunMetrics binary serialization (CRWMETRS): bit-exact round-trip of
 * every field — including the Table-1 per-thread counters and exact
 * IEEE-754 double patterns — plus rejection of every damage mode the
 * bench result cache must survive: wrong magic, unknown version,
 * truncation, payload corruption, and an entry stored under a
 * different identity key (the hash-collision guard).
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

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
                                 test->name() + ".metrics";
        path_ = (std::filesystem::temp_directory_path() / name).string();
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::vector<char>
    readAll() const
    {
        std::ifstream in(path_, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    }

    void
    writeAll(const std::vector<char> &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::string path_;
};

TEST_F(RunMetricsFile, RoundTripIsBitIdentical)
{
    const RunMetrics m = sampleMetrics();
    std::string err;
    ASSERT_TRUE(saveMetricsFile(m, kKey, path_, &err)) << err;

    RunMetrics loaded;
    ASSERT_TRUE(loadMetricsFile(path_, kKey, loaded, &err)) << err;
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
    std::string err;
    ASSERT_TRUE(saveMetricsFile(m, kKey, path_, &err)) << err;

    RunMetrics loaded;
    ASSERT_TRUE(loadMetricsFile(path_, kKey, loaded, &err)) << err;
    EXPECT_TRUE(metricsBitIdentical(m, loaded));
    EXPECT_TRUE(std::isnan(loaded.meanSwitchCost));
    EXPECT_TRUE(std::isinf(loaded.meanSlackness));
}

TEST_F(RunMetricsFile, EmptyPerThreadRoundTrips)
{
    RunMetrics m = sampleMetrics();
    m.perThread.clear();
    std::string err;
    ASSERT_TRUE(saveMetricsFile(m, kKey, path_, &err)) << err;

    RunMetrics loaded;
    ASSERT_TRUE(loadMetricsFile(path_, kKey, loaded, &err)) << err;
    EXPECT_TRUE(metricsBitIdentical(m, loaded));
    EXPECT_TRUE(loaded.perThread.empty());
}

TEST_F(RunMetricsFile, MissingFileFails)
{
    RunMetrics out;
    std::string err;
    EXPECT_FALSE(loadMetricsFile("/nonexistent/dir/none.metrics",
                                 kKey, out, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(RunMetricsFile, BadMagicRejected)
{
    std::string err;
    ASSERT_TRUE(saveMetricsFile(sampleMetrics(), kKey, path_, &err))
        << err;
    std::vector<char> bytes = readAll();
    ASSERT_GE(bytes.size(), 8u);
    bytes[0] = 'X';
    writeAll(bytes);

    RunMetrics out;
    EXPECT_FALSE(loadMetricsFile(path_, kKey, out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST_F(RunMetricsFile, UnknownVersionRejected)
{
    std::string err;
    ASSERT_TRUE(saveMetricsFile(sampleMetrics(), kKey, path_, &err))
        << err;
    std::vector<char> bytes = readAll();
    // Version is the little-endian u32 right after the 8-byte magic.
    ASSERT_GE(bytes.size(), 12u);
    bytes[8] = static_cast<char>(kRunMetricsFormatVersion + 1);
    writeAll(bytes);

    RunMetrics out;
    EXPECT_FALSE(loadMetricsFile(path_, kKey, out, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST_F(RunMetricsFile, TruncationRejected)
{
    std::string err;
    ASSERT_TRUE(saveMetricsFile(sampleMetrics(), kKey, path_, &err))
        << err;
    std::vector<char> bytes = readAll();
    ASSERT_GT(bytes.size(), 20u);
    bytes.resize(bytes.size() - 9); // clips checksum + payload tail
    writeAll(bytes);

    RunMetrics out;
    EXPECT_FALSE(loadMetricsFile(path_, kKey, out, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(RunMetricsFile, PayloadCorruptionRejected)
{
    std::string err;
    ASSERT_TRUE(saveMetricsFile(sampleMetrics(), kKey, path_, &err))
        << err;
    std::vector<char> bytes = readAll();
    // Flip one payload byte mid-file: the checksum must catch it.
    const std::size_t mid = bytes.size() / 2;
    bytes[mid] = static_cast<char>(bytes[mid] ^ 0x5A);
    writeAll(bytes);

    RunMetrics out;
    EXPECT_FALSE(loadMetricsFile(path_, kKey, out, &err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST_F(RunMetricsFile, ForeignIdentityKeyRejected)
{
    // A record stored under one key must not load under another —
    // this is what turns a file-name hash collision into a plain
    // cache miss instead of an aliased result.
    std::string err;
    ASSERT_TRUE(saveMetricsFile(sampleMetrics(), kKey, path_, &err))
        << err;

    RunMetrics out;
    EXPECT_FALSE(loadMetricsFile(
        path_, std::string(kKey) + "-other", out, &err));
    EXPECT_NE(err.find("identity key"), std::string::npos) << err;
    // The honest key still works.
    EXPECT_TRUE(loadMetricsFile(path_, kKey, out, &err)) << err;
}

TEST_F(RunMetricsFile, TrailingGarbageRejected)
{
    std::string err;
    ASSERT_TRUE(saveMetricsFile(sampleMetrics(), kKey, path_, &err))
        << err;
    std::vector<char> bytes = readAll();
    // Splice extra payload bytes in front of the checksum and fix
    // nothing: the checksum no longer matches.
    bytes.insert(bytes.end() - 8, 4, '\0');
    writeAll(bytes);

    RunMetrics out;
    EXPECT_FALSE(loadMetricsFile(path_, kKey, out, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(RunMetricsFile, FuzzedFilesNeverCrashTheLoader)
{
    // Deterministic corruption fuzz, mirroring the EventTrace one:
    // single-bit flips and truncations must load cleanly or fail
    // gracefully — never crash. (A flip inside the stored key region
    // is caught by the checksum before the key comparison runs.)
    std::string err;
    ASSERT_TRUE(saveMetricsFile(sampleMetrics(), kKey, path_, &err))
        << err;
    const std::vector<char> original = readAll();
    ASSERT_GT(original.size(), 24u);

    std::uint64_t rng = 0x1993ull;
    const auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    for (int i = 0; i < 200; ++i) {
        std::vector<char> bytes = original;
        if (i % 2 == 0) {
            const std::size_t at = next() % bytes.size();
            bytes[at] = static_cast<char>(
                bytes[at] ^ (1u << (next() % 8)));
        } else {
            bytes.resize(next() % bytes.size());
        }
        writeAll(bytes);
        RunMetrics out;
        std::string why;
        if (loadMetricsFile(path_, kKey, out, &why)) {
            EXPECT_TRUE(metricsBitIdentical(out, sampleMetrics()));
        } else {
            EXPECT_FALSE(why.empty());
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
