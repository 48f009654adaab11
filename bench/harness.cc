#include "bench/harness.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "rt/host_pool.h"

#include "common/chart.h"
#include "common/flags.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "obs/ring.h"
#include "obs/trace_json.h"

namespace crw {
namespace bench {

namespace {

int g_jobs = 0; // 0 = benchInit() not called / flag not given

// Observability session (tentpole, DESIGN.md §10). Empty output
// paths mean "off": the only cost on that path is one branch per
// replay point.
std::string g_metricsOut;
std::string g_traceOut;
std::uint64_t g_traceLimit = 50000;
std::mutex g_manifestMu;
obs::RunManifest g_manifest;
std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

std::int64_t
hostMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - g_epoch)
        .count();
}

int
resolveJobs(std::int64_t flag_jobs)
{
    if (flag_jobs > 0)
        return static_cast<int>(flag_jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
    return parseJobs(std::getenv("CRW_JOBS"), fallback);
}

} // namespace

int
parseJobs(const char *text, int fallback)
{
    if (!text)
        return fallback;
    errno = 0;
    char *rest = nullptr;
    const long v = std::strtol(text, &rest, 10);
    if (rest == text || *rest != '\0' || errno == ERANGE || v < 1) {
        std::cerr << "warning: invalid job count \"" << text
                  << "\"; using " << fallback << '\n';
        return fallback;
    }
    if (v > kMaxJobs) {
        std::cerr << "warning: job count " << v << " clamped to "
                  << kMaxJobs << '\n';
        return kMaxJobs;
    }
    return static_cast<int>(v);
}

bool
benchInit(int argc, const char *const *argv)
{
    FlagSet flags;
    return benchInit(argc, argv, flags);
}

bool
benchInit(int argc, const char *const *argv, FlagSet &flags)
{
    flags.defineInt("jobs", 0,
                    "parallel sweep workers (0 = $CRW_JOBS, else "
                    "hardware concurrency)");
    flags.defineString("metrics-out", "",
                       "write the metrics registry as JSON to this "
                       "file at exit");
    flags.defineString("trace-out", "",
                       "write a Chrome trace-event JSON timeline to "
                       "this file at exit");
    flags.defineInt("trace-limit", 50000,
                    "max recorded spans per timeline track");
    if (!flags.parse(argc, argv))
        return false;
    g_jobs = resolveJobs(flags.getInt("jobs"));
    g_metricsOut = flags.getString("metrics-out");
    g_traceOut = flags.getString("trace-out");
    if (flags.getInt("trace-limit") > 0)
        g_traceLimit =
            static_cast<std::uint64_t>(flags.getInt("trace-limit"));
    g_epoch = std::chrono::steady_clock::now();

    // Invert the rt -> obs layering: the pool reports job start/end
    // through a plain hook, the harness forwards into the ring.
    HostPool::setEventHook([](HostPool::Event event, std::uint64_t a,
                              std::uint64_t b) {
        ringPublish(event == HostPool::Event::JobStart
                        ? obs::RingEventCode::PoolJobStart
                        : obs::RingEventCode::PoolJobEnd,
                    static_cast<std::uint32_t>(b), a);
    });

    if (obsEnabled()) {
        std::string bench = argc > 0 ? argv[0] : "unknown";
        const std::size_t slash = bench.find_last_of('/');
        if (slash != std::string::npos)
            bench = bench.substr(slash + 1);
        const char *rev = std::getenv("CRW_GIT_SHA");
        manifestSet("bench", bench);
        manifestSet("git_rev", rev && *rev ? rev : "unknown");
        // Host-dependent by nature; the determinism gates normalize
        // this one manifest line (check_determinism.sh part 3).
        manifestSet("jobs", std::to_string(g_jobs));
    }
    return true;
}

int
sweepJobs()
{
    return g_jobs > 0 ? g_jobs : resolveJobs(0);
}

bool
obsEnabled()
{
    return !g_metricsOut.empty() || !g_traceOut.empty();
}

bool
traceRequested()
{
    return !g_traceOut.empty();
}

std::uint64_t
traceSpanLimit()
{
    return g_traceLimit;
}

obs::MetricsRegistry &
metrics()
{
    static obs::MetricsRegistry registry;
    return registry;
}

obs::TraceJsonWriter &
traceWriter()
{
    static obs::TraceJsonWriter writer;
    return writer;
}

obs::EventRing &
eventRing()
{
    // File-backed when this process wins the flock; a second bench
    // running concurrently (or a read-only `crw-bench cache`
    // attacher) silently gets an anonymous ring instead of torn
    // events. Opened on first publish, independent of obs flags —
    // the "always-on" tier.
    static obs::EventRing ring;
    static std::once_flag once;
    std::call_once(once, [] {
        if (!ring.openFile(outputPath("obs/events.ring"),
                           obs::kEventRingCapacity) ||
            !ring.writable())
            ring.openAnonymous(obs::kEventRingCapacity);
    });
    return ring;
}

void
ringPublish(obs::RingEventCode code, std::uint32_t arg,
            std::uint64_t value)
{
    obs::RingEvent e;
    e.t_us = hostMicros();
    e.code = static_cast<std::uint32_t>(code);
    e.arg = arg;
    e.value = value;
    eventRing().publish(e);
}

void
manifestSet(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(g_manifestMu);
    g_manifest.set(key, value);
}

void
manifestNote(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(g_manifestMu);
    g_manifest.noteValue(key, value);
}

void
benchFinish()
{
    if (!obsEnabled())
        return;
    obs::RunManifest manifest;
    {
        std::lock_guard<std::mutex> lock(g_manifestMu);
        manifest = g_manifest;
    }
    std::string err;
    if (!g_metricsOut.empty()) {
        if (metrics().writeJsonFile(g_metricsOut, manifest, &err))
            std::cerr << "metrics written to " << g_metricsOut << '\n';
        else
            std::cerr << "warning: " << err << '\n';
    }
    if (!g_traceOut.empty()) {
        // Drain the always-on ring into the timeline as one host-time
        // instant track ("ring" process): the cache/flat/pool events
        // line up under the worker spans in the same viewer.
        obs::SpanCollector rc("ring", g_traceLimit);
        rc.nameThread(0, "events");
        for (const obs::RingEvent &e : eventRing().snapshot())
            rc.instant(0,
                       obs::ringEventName(
                           static_cast<obs::RingEventCode>(e.code)),
                       "ring", e.t_us);
        traceWriter().addTrack(rc.take());
        if (traceWriter().writeFile(g_traceOut, &err))
            std::cerr << "trace written to " << g_traceOut << " ("
                      << traceWriter().totalSpans() << " spans, "
                      << traceWriter().trackCount() << " tracks)\n";
        else
            std::cerr << "warning: " << err << '\n';
    }
}

ParallelSweep::ParallelSweep(int jobs, std::string busy_metric)
    : jobs_(jobs < 1 ? 1 : jobs), busyMetric_(std::move(busy_metric))
{}

void
ParallelSweep::run(std::size_t count,
                   const std::function<void(std::size_t)> &task) const
{
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(jobs_), count));
    const bool obs = obsEnabled();
    const bool spans = obs && !g_traceOut.empty();

    // Per-worker observability slots, indexed by the pool's worker id
    // (0 = this caller). All the host-side instrumentation publishes
    // under "host." names: wall-clock valued, so excluded from the
    // determinism contract.
    std::vector<obs::SpanCollector> collectors;
    std::vector<double> busy(
        static_cast<std::size_t>(std::max(workers, 1)), 0.0);
    if (spans) {
        collectors.reserve(busy.size());
        for (std::size_t w = 0; w < busy.size(); ++w) {
            collectors.emplace_back("host", g_traceLimit);
            collectors.back().nameThread(
                static_cast<std::uint32_t>(w),
                "worker " + std::to_string(w));
        }
    }

    // The pool takes a plain function pointer + context: the task
    // body and slots live in this frame, which outlives the job, so
    // nothing is heap-allocated per task. A task exception is
    // rethrown here by HostPool::run (first failure wins).
    struct SweepCtx
    {
        const std::function<void(std::size_t)> *task;
        std::size_t count;
        bool obs;
        bool spans;
        std::vector<obs::SpanCollector> *collectors;
        std::vector<double> *busy;
    };
    SweepCtx ctx{&task, count, obs, spans, &collectors, &busy};

    HostPool::instance().run(
        count, jobs_,
        [](void *p, std::size_t i, int w) {
            SweepCtx &c = *static_cast<SweepCtx *>(p);
            if (!c.obs) {
                (*c.task)(i);
                return;
            }
            metrics().sample("host.queue_depth",
                             static_cast<double>(c.count - i));
            const std::int64_t t0 = hostMicros();
            (*c.task)(i);
            const std::int64_t t1 = hostMicros();
            metrics().sample("host.point_wall_s",
                             static_cast<double>(t1 - t0) * 1e-6);
            (*c.busy)[static_cast<std::size_t>(w)] +=
                static_cast<double>(t1 - t0) * 1e-6;
            if (c.spans) {
                const std::string name = "point " + std::to_string(i);
                (*c.collectors)[static_cast<std::size_t>(w)].complete(
                    static_cast<std::uint32_t>(w), name.c_str(),
                    "host", t0, t1 - t0);
            }
        },
        &ctx);

    if (obs)
        for (const double b : busy)
            metrics().sample(busyMetric_, b);
    if (spans)
        for (obs::SpanCollector &sc : collectors)
            traceWriter().addTrack(sc.take());
}

std::string
outputPath(const std::string &name)
{
    const std::filesystem::path path =
        std::filesystem::path("bench_out") / name;
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    return path.string();
}

void
banner(const std::string &title)
{
    std::cout << '\n'
              << std::string(72, '=') << '\n'
              << title << '\n'
              << std::string(72, '=') << '\n';
}

void
SelfCheck::operator()(bool cond, const std::string &what)
{
    std::cout << "  [" << (cond ? "ok" : "FAIL") << "] " << what << '\n';
    ok_ = ok_ && cond;
}

void
emitFigure(const std::string &title, const std::string &xLabel,
           const std::string &yLabel, Table &table, AsciiChart &chart,
           const std::string &csvName)
{
    banner(title);
    table.printText(std::cout);
    std::cout << '\n';
    chart.render(std::cout);
    const std::string path = outputPath(csvName);
    table.writeCsvFile(path);
    std::cout << "\n(series written to " << path << ")\n";
    (void)xLabel;
    (void)yLabel;
}

} // namespace bench
} // namespace crw
