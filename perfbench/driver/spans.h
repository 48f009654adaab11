/**
 * @file
 * In-memory span log and result writer of the crw benchmark driver.
 *
 * A span is one timed call into a layer's public function: a name,
 * start and end (host seconds since the process began), and the index
 * of the enclosing span. Spans stay in memory while the workload runs
 * and are written once, at exit, as Chrome trace-event JSON (Perfetto
 * loads it). Every span of one benchmark run carries the same run id.
 */

#ifndef CRW_PERFBENCH_SPANS_H_
#define CRW_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace crw {
namespace perf {

/** Host seconds since the driver process started (steady clock). */
double nowSeconds();

/** User plus system CPU seconds of this process, all threads. */
double cpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1; ///< index into spans(); -1 for a root
    };

    /** Recording is off by default: begin()/end() then cost nothing. */
    explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its id. */
    int begin(const std::string &name);

    /** Close span @p id (must be the innermost open one). */
    void end(int id);

    /**
     * Write every span as one Chrome trace-event JSON document
     * ("X" events, microseconds). @p pid separates the processes of
     * one run when their files are merged.
     */
    bool writeChromeJson(const std::string &path,
                         const std::string &run_id, int pid) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name)
        : log_(log), id_(log.enabled() ? log.begin(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (id_ >= 0)
            log_.end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

/**
 * Flat result record the driver prints as one JSON object: numbers
 * and strings by name. Insertion order is irrelevant (keys sort).
 */
class Result
{
  public:
    void set(const std::string &key, double v) { nums_[key] = v; }
    void set(const std::string &key, const std::string &v)
    {
        strs_[key] = v;
    }
    void add(const std::string &key, double v) { nums_[key] += v; }

    std::string json() const;

  private:
    std::map<std::string, double> nums_;
    std::map<std::string, std::string> strs_;
};

/** Tally of a pass's correctness checks; failures go to stderr. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void expect(bool ok, const std::string &what);
};

} // namespace perf
} // namespace crw

#endif // CRW_PERFBENCH_SPANS_H_
