/**
 * @file
 * MetricsRegistry: the run-observability metric store (DESIGN.md §10).
 *
 * The paper's evaluation is an exercise in *cycle attribution* — a
 * bus-level logic analyzer splits execution into window traffic and
 * compute (§5.2). This registry is the software equivalent for our
 * three engines: every run point (one replay of a behavior at one
 * scheme × windows × policy configuration, or one instruction-level
 * workload) publishes an exact per-phase cycle account plus its event
 * counters, and harnesses dump the whole store as one JSON document
 * (`--metrics-out=FILE.json`).
 *
 * Determinism contract: everything outside the "host" namespace must
 * be byte-identical across repeated runs and across worker counts
 * (scripts/check_determinism.sh part 3 gates this). The rules that
 * make that hold:
 *
 *  - integer counters merge by addition (order-independent);
 *  - floating-point values are recorded *per point*, each computed by
 *    a deterministic single-threaded replay — never accumulated
 *    across concurrently-finishing points (FP addition order would
 *    leak the schedule);
 *  - all maps are ordered by name, so emission order is fixed;
 *  - anything derived from the host clock is published under a name
 *    starting with "host." and emitted in a separate "host" section
 *    that the determinism gates strip.
 *
 * Thread-safety: registration takes a mutex; counter bumps through a
 * handle are lock-free (std::atomic, relaxed). Sweep workers publish
 * whole finished points, so contention is per-point, not per-event.
 */

#ifndef CRW_OBS_METRICS_H_
#define CRW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

namespace crw {
namespace obs {

/**
 * Exact decomposition of a run point's simulated time, mirroring
 * WindowEngine's hot counters: compute + callret + trap + switches
 * == total (engine now()) — the acceptance invariant every consumer
 * may rely on.
 */
struct CycleAccount
{
    std::uint64_t compute = 0;
    std::uint64_t callret = 0;
    std::uint64_t trap = 0;
    std::uint64_t switches = 0;
    std::uint64_t total = 0;

    CycleAccount &
    operator+=(const CycleAccount &o)
    {
        compute += o.compute;
        callret += o.callret;
        trap += o.trap;
        switches += o.switches;
        total += o.total;
        return *this;
    }

    bool
    balanced() const
    {
        return compute + callret + trap + switches == total;
    }
};

/**
 * One published run point: a cycle account, integer event counters,
 * and per-point scalar values (means etc., deterministic because each
 * is computed by one single-threaded run).
 */
struct PointRecord
{
    CycleAccount cycles;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> values;
};

/** Min/max/count/sum summary for host-side samples. */
struct SampleSummary
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void
    sample(double v)
    {
        if (count == 0 || v < min)
            min = v;
        if (count == 0 || v > max)
            max = v;
        sum += v;
        ++count;
    }

    double mean() const { return count ? sum / count : 0.0; }
};

/** The run manifest stamped into every observability output. */
struct RunManifest
{
    /** Sorted key -> value; keys like scheme/windows/policy/seed. */
    std::map<std::string, std::string> fields;

    void
    set(const std::string &key, const std::string &value)
    {
        fields[key] = value;
    }

    /** Accumulate a set-valued field ("NS,SNP,SP") in sorted order. */
    void noteValue(const std::string &key, const std::string &value);
};

/**
 * The registry. Components publish finished points with mergePoint();
 * long-lived counters (cache hits, dropped events) use counter
 * handles; host-side timing samples use sample() with a "host."
 * name.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Lock-free counter handle (stable address for the registry's
     * lifetime). Acquire once, bump freely from any thread.
     */
    std::atomic<std::uint64_t> &counter(const std::string &name);

    /** One-shot add (lookup + bump under the hood). */
    void add(const std::string &name, std::uint64_t v);

    std::uint64_t counterValue(const std::string &name) const;

    /** Record one sample of a distribution (mutex-protected). */
    void sample(const std::string &name, double v);

    /** The samples of @p name so far (count 0 if never sampled). */
    SampleSummary sampleSummary(const std::string &name) const;

    /**
     * Merge one finished run point under @p label (e.g.
     * "HC-fine/NS/w8/fifo"). Counters and cycles add; values insert
     * (idempotent re-publication of identical values is fine).
     */
    void mergePoint(const std::string &label, const PointRecord &rec);

    /** Read back a published point (empty record if unknown). */
    PointRecord point(const std::string &label) const;

    /** Number of published points. */
    std::size_t pointCount() const;

    /**
     * Emit the whole registry as one JSON document:
     *   { "manifest": {...}, "points": {...}, "counters": {...},
     *     "samples": {...}, "host": {...} }
     * Names beginning with "host." land in the "host" object (and
     * only there); everything else is deterministic by construction.
     */
    void writeJson(std::ostream &os, const RunManifest &manifest) const;

    /** writeJson() to @p path; false (and *error) on I/O failure. */
    bool writeJsonFile(const std::string &path,
                       const RunManifest &manifest,
                       std::string *error = nullptr) const;

  private:
    mutable std::mutex mu_;
    /** node-based map: atomic addresses are stable once created. */
    std::map<std::string, std::atomic<std::uint64_t>> counters_;
    std::map<std::string, SampleSummary> samples_;
    std::map<std::string, PointRecord> points_;
};

/** Stable JSON double formatting (shortest round-trip, %.17g cap). */
std::string formatJsonDouble(double v);

/** Minimal JSON string escaping for names and manifest values. */
std::string escapeJson(const std::string &s);

} // namespace obs
} // namespace crw

#endif // CRW_OBS_METRICS_H_
