/**
 * @file
 * Shared infrastructure of the exhibit-reproduction benches: common
 * command line, observability session, worker pool and report
 * emission. The experiment layers sit on top:
 *
 *   plan     bench/plan.h      declarative point sets per exhibit
 *   execute  bench/executor.h  shared sweep runner + result cache
 *   report   bench/exhibits.h  per-exhibit tables/charts/CSVs
 *   driver   bench/registry.h  crw-bench, the one bench driver
 *
 * This header is deliberately light — everything heavyweight (spell,
 * replay, obs implementation types) is forward-declared — so the
 * report TUs compile against the layer they use.
 *
 * Conventions: each exhibit runs standalone with sensible defaults,
 * prints an aligned table plus an ASCII chart of the figure's series,
 * and writes a CSV next to the working directory (bench_out/).
 * Results are deterministic and independent of the worker count and
 * of the result-cache state.
 */

#ifndef CRW_BENCH_HARNESS_H_
#define CRW_BENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace crw {

class AsciiChart;
class FlagSet;
class Table;

namespace obs {
class EventRing;
class MetricsRegistry;
class TraceJsonWriter;
enum class RingEventCode : std::uint32_t;
} // namespace obs

namespace bench {

/**
 * Parse the common bench command line (--jobs, --metrics-out,
 * --trace-out, --trace-limit, --help). Returns false if the process
 * should exit immediately (--help was printed).
 */
bool benchInit(int argc, const char *const *argv);

/**
 * As above, but parsing with the caller's FlagSet so a bench can add
 * its own flags next to the common ones (the exhibit registry does
 * this for --no-cache and sparc_interp's workload knobs).
 */
bool benchInit(int argc, const char *const *argv, FlagSet &flags);

/**
 * Write the observability outputs requested on the command line
 * (--metrics-out / --trace-out), stamping the run manifest into each.
 * Call once at the end of main; a no-op when neither flag was given.
 * All notes go to stderr (stdout is byte-compared by the determinism
 * gates).
 */
void benchFinish();

/** Upper bound enforced on --jobs / $CRW_JOBS. */
inline constexpr int kMaxJobs = 512;

/**
 * Strictly parse a worker count: the whole string must be a decimal
 * integer in [1, kMaxJobs]. Returns @p fallback (warning on stderr)
 * on anything else — unlike atoi, "8x" and "" do not silently become
 * a number. Null @p text quietly returns @p fallback (unset env var).
 */
int parseJobs(const char *text, int fallback);

/**
 * Worker count for ParallelSweep: the --jobs flag if given, else the
 * CRW_JOBS environment variable, else the hardware concurrency
 * (always at least 1).
 */
int sweepJobs();

/** True when --metrics-out or --trace-out was given. */
bool obsEnabled();

/** True when --trace-out was given (timelines need live replays). */
bool traceRequested();

/** The --trace-limit cap on recorded spans per timeline track. */
std::uint64_t traceSpanLimit();

/** The process-wide metric store (dumped by benchFinish()). */
obs::MetricsRegistry &metrics();

/** The process-wide trace collector (dumped by benchFinish()). */
obs::TraceJsonWriter &traceWriter();

/**
 * The always-on event ring (obs/ring.h): file-backed at
 * bench_out/obs/events.ring when this process wins its flock (else a
 * private in-memory ring), independent of --metrics-out/--trace-out.
 * benchFinish() drains it into the Chrome trace when --trace-out was
 * given.
 */
obs::EventRing &eventRing();

/**
 * Stamp one event with session-relative host time and publish it to
 * the ring. Thread-safe; never blocks on observers.
 */
void ringPublish(obs::RingEventCode code, std::uint32_t arg,
                 std::uint64_t value);

/** Thread-safe run-manifest stamping (RunManifest::set). */
void manifestSet(const std::string &key, const std::string &value);

/** Thread-safe set-valued stamping (RunManifest::noteValue). */
void manifestNote(const std::string &key, const std::string &value);

/**
 * Fan-out over the process-lifetime HostPool (rt/host_pool.h). run()
 * executes task(0..count-1), each exactly once, claimed one index at
 * a time in index order. Tasks must be independent (replay points
 * are: one engine per point, no shared mutable state); each writes
 * its result into its own pre-allocated slot, so the output is
 * deterministic and independent of the worker count.
 *
 * If a task throws, the first exception is rethrown from run() on the
 * caller once in-flight tasks drain (unclaimed tasks are abandoned);
 * the sweep object stays reusable afterwards.
 *
 * With observability on, each run() samples every worker's busy time
 * into its own host metric, named per fan-out so that one job's idle
 * workers never read as another's.
 */
class ParallelSweep
{
  public:
    /**
     * @param jobs Worker count; <= 1 runs inline on the caller.
     * @param busy_metric The host metric the per-worker busy samples
     *        go to: "host.<job>.worker_busy_s", except the executor's
     *        replay fan-out, which alone publishes host.worker_busy_s
     *        (what perfbench's pool.worker_busy_{max,min}_s read).
     */
    explicit ParallelSweep(
        int jobs, std::string busy_metric = "host.sweep.worker_busy_s");

    void run(std::size_t count,
             const std::function<void(std::size_t)> &task) const;

    int jobs() const { return jobs_; }

  private:
    int jobs_;
    std::string busyMetric_;
};

/** Ensure the parent directory exists, return "bench_out/<name>". */
std::string outputPath(const std::string &name);

/** Print a section header. */
void banner(const std::string &title);

/**
 * An exhibit's self-checks: each call prints one `  [ok] <what>` or
 * `  [FAIL] <what>` line, and exitCode() is 1 once any check failed.
 */
class SelfCheck
{
  public:
    void operator()(bool cond, const std::string &what);

    int exitCode() const { return ok_ ? 0 : 1; }

  private:
    bool ok_ = true;
};

/**
 * Render one figure: a per-scheme series table (already assembled by
 * the caller), the ASCII chart, and the CSV file.
 */
void emitFigure(const std::string &title, const std::string &xLabel,
                const std::string &yLabel, Table &table,
                AsciiChart &chart, const std::string &csvName);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_HARNESS_H_
