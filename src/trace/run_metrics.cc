#include "trace/run_metrics.h"

#include <cstring>

#include "common/byteio.h"

namespace crw {
namespace {

constexpr char kMetricsMagic[8] = {'C', 'R', 'W', 'M',
                                   'E', 'T', 'R', 'S'};

void
encodeMetricsPayload(const RunMetrics &m, const std::string &key,
                     ByteWriter &w)
{
    w.str(key);
    w.u32(static_cast<std::uint32_t>(m.scheme));
    w.u32(static_cast<std::uint32_t>(m.policy));
    w.u32(static_cast<std::uint32_t>(m.windows));
    w.u64(m.totalCycles);
    w.u64(m.switches);
    w.u64(m.saves);
    w.u64(m.restores);
    w.u64(m.overflowTraps);
    w.u64(m.underflowTraps);
    w.u64(m.switchWindowsSaved);
    w.u64(m.switchWindowsRestored);
    w.f64(m.meanSwitchCost);
    w.f64(m.trapProbability);
    w.f64(m.activityPerQuantum);
    w.f64(m.totalWindowActivity);
    w.f64(m.concurrency);
    w.f64(m.meanSlackness);
    w.u64(m.misspelled);
    w.u32(static_cast<std::uint32_t>(m.perThread.size()));
    for (const ThreadCounters &t : m.perThread) {
        w.u64(t.saves);
        w.u64(t.restores);
        w.u64(t.switchesIn);
    }
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

RunMetrics
collectRunMetrics(const WindowEngine &engine,
                  const BehaviorTracker &tracker,
                  const Distribution &slackness, SchedPolicy policy,
                  int num_threads, std::size_t misspelled)
{
    const StatGroup &s = engine.stats();
    RunMetrics m;
    m.scheme = engine.scheme();
    m.policy = policy;
    m.windows = engine.numWindows();
    m.totalCycles = engine.now();
    m.switches = s.counterValue("switches");
    m.saves = s.counterValue("saves");
    m.restores = s.counterValue("restores");
    m.overflowTraps = s.counterValue("overflow_traps");
    m.underflowTraps = s.counterValue("underflow_traps");
    m.switchWindowsSaved = s.counterValue("switch_windows_saved");
    m.switchWindowsRestored =
        s.counterValue("switch_windows_restored");
    m.meanSwitchCost = s.distributions().at("switch_cost").mean();
    const double ops = static_cast<double>(m.saves + m.restores);
    m.trapProbability =
        ops > 0 ? static_cast<double>(m.overflowTraps +
                                      m.underflowTraps) /
                      ops
                : 0.0;
    m.activityPerQuantum = tracker.activityPerQuantum().mean();
    m.totalWindowActivity = tracker.totalWindowActivity().mean();
    m.concurrency = tracker.concurrency().mean();
    m.meanSlackness = slackness.mean();
    m.misspelled = misspelled;
    for (ThreadId tid = 0; tid < num_threads; ++tid)
        m.perThread.push_back(engine.threadCounters(tid));
    return m;
}

std::vector<std::uint8_t>
encodeMetricsRecord(const RunMetrics &metrics, const std::string &key)
{
    ByteWriter payload;
    encodeMetricsPayload(metrics, key, payload);
    return std::move(payload.bytes);
}

bool
decodeMetricsRecord(const std::uint8_t *data, std::size_t n,
                    const std::string &expected_key, RunMetrics &out,
                    bool *key_mismatch)
{
    if (key_mismatch)
        *key_mismatch = false;
    ByteReader r{data, data + n};
    const std::string stored_key = r.str();
    if (!r.ok)
        return false;
    if (stored_key != expected_key) {
        if (key_mismatch)
            *key_mismatch = true;
        return false;
    }

    RunMetrics m;
    m.scheme = static_cast<SchemeKind>(r.u32());
    m.policy = static_cast<SchedPolicy>(r.u32());
    m.windows = static_cast<int>(r.u32());
    m.totalCycles = static_cast<Cycles>(r.u64());
    m.switches = r.u64();
    m.saves = r.u64();
    m.restores = r.u64();
    m.overflowTraps = r.u64();
    m.underflowTraps = r.u64();
    m.switchWindowsSaved = r.u64();
    m.switchWindowsRestored = r.u64();
    m.meanSwitchCost = r.f64();
    m.trapProbability = r.f64();
    m.activityPerQuantum = r.f64();
    m.totalWindowActivity = r.f64();
    m.concurrency = r.f64();
    m.meanSlackness = r.f64();
    m.misspelled = static_cast<std::size_t>(r.u64());
    const std::uint32_t num_threads = r.u32();
    for (std::uint32_t i = 0; r.ok && i < num_threads; ++i) {
        ThreadCounters t;
        t.saves = r.u64();
        t.restores = r.u64();
        t.switchesIn = r.u64();
        m.perThread.push_back(t);
    }
    if (!r.ok || r.p != r.end)
        return false;
    out = std::move(m);
    return true;
}

namespace {

/**
 * Shared CRWMETRS frame validation: on success @p payload / @p size
 * delimit the record payload inside @p bytes.
 */
MetricsLoadStatus
checkMetricsFrame(const std::vector<std::uint8_t> &bytes,
                  const std::uint8_t **payload, std::size_t *size,
                  std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
    };
    // 8 magic + 4 version + 8 trailing checksum.
    if (bytes.size() < 20) {
        fail("truncated header");
        return MetricsLoadStatus::Malformed;
    }
    if (std::memcmp(bytes.data(), kMetricsMagic, 8) != 0) {
        fail("bad magic (not a crw metrics record)");
        return MetricsLoadStatus::Malformed;
    }
    ByteReader header{bytes.data() + 8, bytes.data() + bytes.size()};
    const std::uint32_t version = header.u32();
    if (version != kRunMetricsFormatVersion) {
        fail("unsupported metrics version " + std::to_string(version));
        return MetricsLoadStatus::VersionMismatch;
    }
    *payload = bytes.data() + 12;
    *size = bytes.size() - 20;
    ByteReader csum{bytes.data() + bytes.size() - 8,
                    bytes.data() + bytes.size()};
    if (fnv1a64(*payload, *size) != csum.u64()) {
        fail("checksum mismatch (corrupted metrics record)");
        return MetricsLoadStatus::Malformed;
    }
    return MetricsLoadStatus::Ok;
}

} // namespace

bool
saveMetricsFile(const RunMetrics &metrics, const std::string &key,
                const std::string &path, std::string *error)
{
    const std::vector<std::uint8_t> payload =
        encodeMetricsRecord(metrics, key);

    ByteWriter file{{kMetricsMagic, kMetricsMagic + 8}};
    file.u32(kRunMetricsFormatVersion);
    file.bytes.insert(file.bytes.end(), payload.begin(),
                      payload.end());
    file.u64(fnv1a64(payload.data(), payload.size()));

    return writeFileAtomic(file.bytes, path, error);
}

bool
loadMetricsFile(const std::string &path,
                const std::string &expected_key, RunMetrics &out,
                std::string *error, MetricsLoadStatus *status)
{
    auto fail = [error, status](MetricsLoadStatus st,
                                const std::string &why) {
        if (error)
            *error = why;
        if (status)
            *status = st;
        return false;
    };

    std::vector<std::uint8_t> bytes;
    std::string io_err;
    if (!readFileBytes(path, bytes, &io_err))
        return fail(MetricsLoadStatus::NotFound, io_err);

    const std::uint8_t *payload = nullptr;
    std::size_t payload_size = 0;
    const MetricsLoadStatus frame =
        checkMetricsFrame(bytes, &payload, &payload_size, error);
    if (frame != MetricsLoadStatus::Ok) {
        if (status)
            *status = frame;
        return false;
    }

    bool key_mismatch = false;
    if (!decodeMetricsRecord(payload, payload_size, expected_key, out,
                             &key_mismatch)) {
        if (key_mismatch)
            return fail(MetricsLoadStatus::KeyMismatch,
                        "identity key mismatch");
        return fail(MetricsLoadStatus::Malformed,
                    "malformed payload");
    }
    if (status)
        *status = MetricsLoadStatus::Ok;
    return true;
}

bool
peekMetricsFileKey(const std::string &path, std::string &key_out)
{
    std::vector<std::uint8_t> bytes;
    if (!readFileBytes(path, bytes, nullptr))
        return false;
    const std::uint8_t *payload = nullptr;
    std::size_t payload_size = 0;
    if (checkMetricsFrame(bytes, &payload, &payload_size, nullptr) !=
        MetricsLoadStatus::Ok)
        return false;
    ByteReader r{payload, payload + payload_size};
    key_out = r.str();
    return r.ok;
}

bool
metricsBitIdentical(const RunMetrics &a, const RunMetrics &b)
{
    if (a.scheme != b.scheme || a.policy != b.policy ||
        a.windows != b.windows || a.totalCycles != b.totalCycles ||
        a.switches != b.switches || a.saves != b.saves ||
        a.restores != b.restores ||
        a.overflowTraps != b.overflowTraps ||
        a.underflowTraps != b.underflowTraps ||
        a.switchWindowsSaved != b.switchWindowsSaved ||
        a.switchWindowsRestored != b.switchWindowsRestored ||
        a.misspelled != b.misspelled)
        return false;
    if (!bitEqual(a.meanSwitchCost, b.meanSwitchCost) ||
        !bitEqual(a.trapProbability, b.trapProbability) ||
        !bitEqual(a.activityPerQuantum, b.activityPerQuantum) ||
        !bitEqual(a.totalWindowActivity, b.totalWindowActivity) ||
        !bitEqual(a.concurrency, b.concurrency) ||
        !bitEqual(a.meanSlackness, b.meanSlackness))
        return false;
    if (a.perThread.size() != b.perThread.size())
        return false;
    for (std::size_t i = 0; i < a.perThread.size(); ++i) {
        if (a.perThread[i].saves != b.perThread[i].saves ||
            a.perThread[i].restores != b.perThread[i].restores ||
            a.perThread[i].switchesIn != b.perThread[i].switchesIn)
            return false;
    }
    return true;
}

} // namespace crw
