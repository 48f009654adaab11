/**
 * @file
 * The sweep pass: the `crw-bench all` plan plus seeded synthetic
 * behaviors, run through the same calls crwBenchMain makes — exhibit
 * plan hooks, ExperimentPlan, cachedTrace, executePlan, each report,
 * benchFinish — with the timed region around exactly those calls.
 *
 * Untimed, after the sweep: the legacy-oracle check of the seeded
 * points (--oracle) and, on a traced pass, per-layer timings taken by
 * calling each layer's public functions again from outside: flat
 * predecode and store, per-unit replay on BatchedReplayDriver /
 * ReplayDriver grouped as the executor groups them, and result-store
 * gets and puts. Each re-run layer is re-run only when the timed sweep
 * exercised it (the executor's own counters say so), so a warm pass
 * reports no replay or predecode work.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "bench/registry.h"
#include "bench/result_cache.h"
#include "common/flags.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "trace/flat_trace_io.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "trace/synth.h"
#include "win/simd.h"

#include "driver.h"
#include "spans.h"

namespace crw {
namespace perf {

using bench::BehaviorId;
using bench::ExperimentPlan;
using bench::PlanPoint;

namespace {

/** The ten exhibits `crw-bench all` selects, in its report order. */
const std::vector<std::string> kAllExhibits = {
    "table1", "table2", "fig11",    "fig12", "fig13",
    "fig14",  "fig15",  "ablation", "microtrace", "synth"};

/** Seeded behaviors per sweep, and the events each one targets: the
 *  three together hold about one spell behavior's worth of events. */
constexpr int kSeededBehaviors = 3;
constexpr std::uint64_t kSeededEventsEach = 540000;

const char *
modeName(SweepMode m)
{
    switch (m) {
      case SweepMode::Cold:
        return "cold";
      case SweepMode::Serial:
        return "serial";
      case SweepMode::Warm:
        return "warm";
    }
    return "?";
}

/**
 * The seed's synthetic behaviors. Topology, thread count, depth,
 * charge, lock rounds, capacity and generator seed are drawn from
 * @p seed; the item count is then solved for so every behavior holds
 * about kSeededEventsEach events (events are affine in items), which
 * keeps a sweep's total work nearly seed-independent.
 */
std::vector<SynthSpec>
seededSpecs(std::uint64_t seed)
{
    Rng rng(seed ^ 0x63727770657266ull); // "crwperf"
    std::vector<SynthSpec> specs;
    std::set<std::string> keys;
    for (int k = 0; k < kSeededBehaviors; ++k) {
        SynthSpec s;
        s.topology =
            static_cast<SynthSpec::Topology>(rng.nextBelow(3));
        switch (s.topology) {
          case SynthSpec::Topology::Pipeline:
            s.threads = static_cast<int>(rng.nextInRange(3, 8));
            break;
          case SynthSpec::Topology::FanInOut:
            s.threads = static_cast<int>(rng.nextInRange(2, 6));
            break;
          case SynthSpec::Topology::Ring:
            s.threads = static_cast<int>(rng.nextInRange(3, 7));
            break;
        }
        s.streamCapacity = static_cast<int>(rng.nextInRange(1, 3));
        s.meanDepth = static_cast<int>(rng.nextInRange(3, 9));
        s.depthJitter = static_cast<int>(
            rng.nextInRange(0, std::min(3, s.meanDepth - 1)));
        s.meanCharge = static_cast<Cycles>(rng.nextInRange(20, 200));
        s.lockRounds =
            rng.nextBelow(2) ? static_cast<int>(rng.nextInRange(8, 40))
                             : 0;
        s.prioritized = false;
        s.seed = rng.next();

        const auto events = [&s](int items) {
            SynthSpec probe = s;
            probe.items = items;
            return static_cast<double>(
                generateSynthTrace(probe).eventCount());
        };
        const double e1 = events(64), e2 = events(128);
        const double slope = (e2 - e1) / 64.0;
        const double base = e1 - slope * 64.0;
        s.items = std::max(
            16, static_cast<int>(
                    (static_cast<double>(kSeededEventsEach) - base) /
                        slope +
                    0.5));
        // The behavior key omits the generator seed, so two specs
        // must never differ in the seed alone.
        while (!keys.insert(synthTraceKey(s)).second)
            ++s.items;
        specs.push_back(s);
    }
    return specs;
}

/** The seeded part of the plan: a FIFO and a WS window sweep each. */
void
addSeeded(ExperimentPlan &plan, const std::vector<SynthSpec> &specs)
{
    for (const SynthSpec &s : specs)
        for (const SchedPolicy pol :
             {SchedPolicy::Fifo, SchedPolicy::WorkingSet})
            plan.addSweep(BehaviorId::fromSynth(s), pol,
                          bench::evaluatedSchemes(),
                          bench::defaultWindowSweep());
}

/** The `crw-bench all` plan plus the seeded behaviors. */
ExperimentPlan
buildPlan(const std::vector<const bench::Exhibit *> &exhibits,
          const std::vector<SynthSpec> &specs)
{
    ExperimentPlan plan;
    for (const bench::Exhibit *ex : exhibits)
        if (ex->plan)
            ex->plan(plan);
    addSeeded(plan, specs);
    return plan;
}

/** Unique behaviors of @p plan, in plan order. */
std::vector<BehaviorId>
planBehaviors(const ExperimentPlan &plan)
{
    std::vector<BehaviorId> out;
    std::set<std::string> seen;
    for (const PlanPoint &p : plan.points())
        if (seen.insert(p.behavior.key()).second)
            out.push_back(p.behavior);
    return out;
}

/**
 * Replay units exactly as the executor forms them for a fully-missing
 * plan: points sharing pointBatchKey, chunked at the batch cap;
 * invariant-checking points alone; every point alone when batching is
 * pinned off.
 */
std::vector<std::vector<std::size_t>>
replayUnits(const std::vector<PlanPoint> &points)
{
    const std::size_t cap = bench::parseReplayBatchCap(
        std::getenv("CRW_REPLAY_BATCH"), bench::defaultReplayBatchCap());
    const char *fast = std::getenv("CRW_REPLAY_FAST");
    const bool batching =
        cap > 1 && !(fast && std::string(fast) == "0");
    std::vector<std::vector<std::size_t>> units;
    if (!batching) {
        for (std::size_t i = 0; i < points.size(); ++i)
            units.push_back({i});
        return units;
    }
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].engine.checkInvariants)
            units.push_back({i});
        else
            groups[bench::pointBatchKey(points[i])].push_back(i);
    }
    for (const auto &entry : groups) {
        const std::vector<std::size_t> &idx = entry.second;
        for (std::size_t at = 0; at < idx.size(); at += cap)
            units.emplace_back(
                idx.begin() + static_cast<std::ptrdiff_t>(at),
                idx.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(idx.size(), at + cap)));
    }
    return units;
}

/** Every seeded point's result must equal a legacy-loop replay. */
void
checkSeededAgainstOracle(const ExperimentPlan &seeded, int jobs,
                         Checks &checks)
{
    const std::vector<PlanPoint> &pts = seeded.points();
    std::vector<char> same(pts.size(), 0);
    const bench::ParallelSweep pool(jobs);
    pool.run(pts.size(), [&](std::size_t i) {
        const PlanPoint &p = pts[i];
        ReplayDriver oracle(bench::cachedTrace(p.behavior), p.engine,
                            p.policy);
        oracle.setPath(ReplayPath::Legacy);
        oracle.run();
        same[i] = metricsBitIdentical(oracle.metrics(),
                                      bench::pointResult(p));
    });
    for (std::size_t i = 0; i < pts.size(); ++i)
        checks.expect(same[i] != 0,
                      "legacy oracle differs at " +
                          bench::pointConfigKey(pts[i]));
}

/** Per-unit replay of the plan, serially, one span per unit. */
void
timeReplayUnits(const ExperimentPlan &plan, SpanLog &log, Result &out,
                Checks &checks)
{
    const std::vector<PlanPoint> &pts = plan.points();
    double busy = 0, unit_max = 0, lane_events = 0;
    std::uint64_t fallback = 0, fallback_points = 0, lanes_run = 0,
                  lanes_kept = 0, simd = 0;
    const auto check = [&](std::size_t i, const RunMetrics &m) {
        checks.expect(metricsBitIdentical(m, bench::pointResult(pts[i])),
                      "unit replay differs at " +
                          bench::pointConfigKey(pts[i]));
    };
    const auto replay_one = [&](std::size_t i, const FlatTrace &flat) {
        const PlanPoint &p = pts[i];
        ReplayDriver d(bench::cachedTrace(p.behavior), p.engine,
                       p.policy, &flat);
        d.run();
        check(i, d.metrics());
        ++lanes_run;
        lane_events += static_cast<double>(flat.eventCount());
    };

    const std::vector<std::vector<std::size_t>> units = replayUnits(pts);
    for (const std::vector<std::size_t> &unit : units) {
        const PlanPoint &p0 = pts[unit[0]];
        const EventTrace &trace = bench::cachedTrace(p0.behavior);
        const FlatTrace &flat = bench::cachedFlatTrace(p0.behavior);
        const double t0 = nowSeconds();
        {
            ScopedSpan span(log, "replay.unit");
            if (unit.size() == 1) {
                replay_one(unit[0], flat);
                ++lanes_kept;
            } else {
                std::vector<EngineConfig> configs;
                for (const std::size_t i : unit)
                    configs.push_back(pts[i].engine);
                BatchedReplayDriver d(trace, configs, p0.policy, &flat);
                lanes_run += unit.size();
                if (d.run()) {
                    lanes_kept += unit.size();
                    lane_events += static_cast<double>(
                        flat.eventCount() * unit.size());
                    simd = std::max<std::uint64_t>(
                        simd, static_cast<std::uint64_t>(d.simdPath()));
                    for (std::size_t lane = 0; lane < unit.size();
                         ++lane)
                        check(unit[lane], d.metrics(lane));
                } else {
                    ++fallback;
                    fallback_points += unit.size();
                    for (const std::size_t i : unit)
                        replay_one(i, flat);
                }
            }
        }
        const double dt = nowSeconds() - t0;
        busy += dt;
        unit_max = std::max(unit_max, dt);
    }
    out.set("replay.units", static_cast<double>(units.size()));
    out.set("replay.busy_s", busy);
    out.set("replay.unit_max_s", unit_max);
    out.set("replay.mevps", busy > 0 ? lane_events / busy / 1e6 : 0);
    out.set("replay.batch_fallback", static_cast<double>(fallback));
    out.set("replay.fallback_points",
            static_cast<double>(fallback_points));
    out.set("replay.useful_ratio",
            lanes_run ? static_cast<double>(lanes_kept) /
                            static_cast<double>(lanes_run)
                      : 0);
    out.set("replay.simd_path", static_cast<double>(simd));
}

/** Flat predecode (and, when the sweep stored, flat store) timing. */
void
timeFlatLayer(const std::vector<BehaviorId> &behaviors, bool store,
              SpanLog &log, Result &out)
{
    const std::filesystem::path dir = "perf_flat_probe";
    std::filesystem::create_directories(dir);
    double predecode = 0, save = 0, bytes = 0;
    for (const BehaviorId &b : behaviors) {
        const EventTrace &trace = bench::cachedTrace(b);
        double t0 = nowSeconds();
        FlatTrace flat;
        {
            ScopedSpan span(log, "flat.predecode");
            flat = FlatTrace::build(trace);
        }
        predecode += nowSeconds() - t0;
        bytes += static_cast<double>(flat.eventCount()) *
                 (sizeof(std::uint8_t) + sizeof(std::uint64_t));
        if (!store)
            continue;
        const std::uint64_t sum = bench::cachedTraceChecksum(b);
        t0 = nowSeconds();
        {
            ScopedSpan span(log, "flat.store");
            saveFlatTrace(flat, sum,
                          (dir / flatTraceFileName(sum)).string());
        }
        save += nowSeconds() - t0;
    }
    std::filesystem::remove_all(dir);
    out.set("flat.predecode_s", predecode);
    out.set("flat.store_s", save);
    out.set("flat.bytes", bytes);
}

/** Result-store gets of every point, and puts when the sweep put. */
void
timeStoreLayer(const ExperimentPlan &plan, bool put, SpanLog &log,
               Result &out, Checks &checks)
{
    std::vector<std::string> keys;
    for (const PlanPoint &p : plan.points())
        keys.push_back(bench::resultCacheKey(
            bench::pointConfigKey(p),
            bench::cachedTraceChecksum(p.behavior)));
    double t0 = nowSeconds();
    if (put) {
        ScopedSpan span(log, "store.put");
        for (std::size_t i = 0; i < keys.size(); ++i)
            bench::storeCachedResult(
                keys[i], bench::pointResult(plan.points()[i]));
    }
    out.set("store.put_s", put ? nowSeconds() - t0 : 0.0);
    t0 = nowSeconds();
    std::vector<RunMetrics> got(keys.size());
    std::vector<char> hit(keys.size(), 0);
    {
        ScopedSpan span(log, "store.get");
        for (std::size_t i = 0; i < keys.size(); ++i)
            hit[i] = bench::loadCachedResult(keys[i], got[i]);
    }
    out.set("store.get_s", nowSeconds() - t0);
    for (std::size_t i = 0; i < keys.size(); ++i)
        checks.expect(hit[i] && metricsBitIdentical(
                                    got[i], bench::pointResult(
                                                plan.points()[i])),
                      "store round trip differs at " + keys[i]);
}

} // namespace

int
runSweepPass(const SweepOptions &o)
{
    SpanLog log(o.traced);
    Result out;
    Checks checks;
    const bool no_cache = o.mode == SweepMode::Serial;

    // The crwBenchMain command line: every exhibit's flags plus
    // --no-cache, parsed by benchInit.
    FlagSet flags;
    for (const bench::Exhibit &ex : bench::exhibitRegistry())
        if (ex.addFlags)
            ex.addFlags(flags);
    flags.defineBool("no-cache", false,
                     "bypass the on-disk stores (point results and "
                     "flat traces); replay every point");
    std::vector<std::string> args = {"crw-bench", "--jobs",
                                     std::to_string(o.jobs)};
    if (no_cache)
        args.push_back("--no-cache");
    if (!o.metricsOut.empty()) {
        args.push_back("--metrics-out");
        args.push_back(o.metricsOut);
    }
    args.push_back("all");
    std::vector<const char *> argv;
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    if (!bench::benchInit(static_cast<int>(argv.size()), argv.data(),
                          flags))
        return 2;
    bench::setResultCacheEnabled(!no_cache);
    bench::setFlatCacheEnabled(!no_cache);

    std::vector<const bench::Exhibit *> exhibits;
    for (const std::string &name : kAllExhibits) {
        exhibits.push_back(bench::findExhibit(name));
        if (!exhibits.back()) {
            std::cerr << "crw-perf: no exhibit named " << name << '\n';
            return 2;
        }
    }

    // Benchmark inputs: made before the clock starts.
    const std::vector<SynthSpec> specs = seededSpecs(o.seed);
    if (o.prepareOnly) {
        // Capture or generate every trace the plan replays, so the
        // timed passes that follow start with traces on disk.
        for (const BehaviorId &b :
             planBehaviors(buildPlan(exhibits, specs)))
            bench::cachedTrace(b);
        out.set("mode", "prepare");
        std::ofstream os(o.resultPath);
        os << out.json() << '\n';
        return os ? 0 : 1;
    }

    // ---- timed region: what `crw-bench all` does ----
    std::ostringstream captured;
    ExperimentPlan plan;
    int rc = 0;
    const double cpu0 = cpuSeconds();
    const double t0 = nowSeconds();
    double setup = 0, execute = 0;
    {
        ScopedSpan sweep(log, "sweep");
        {
            ScopedSpan span(log, "plan");
            plan = buildPlan(exhibits, specs);
            if (bench::obsEnabled())
                bench::manifestSet("plan_digest", plan.digest());
        }
        double t = nowSeconds();
        {
            ScopedSpan span(log, "setup");
            for (const BehaviorId &b : planBehaviors(plan)) {
                const char *layer =
                    o.mode != SweepMode::Cold ? "trace.load"
                    : b.kind == BehaviorId::Kind::Spell
                        ? "spell.capture"
                        : "synth.generate";
                const double b0 = nowSeconds();
                {
                    ScopedSpan s(log, layer);
                    bench::cachedTrace(b);
                }
                out.add(std::string(layer) + "_s", nowSeconds() - b0);
            }
        }
        setup = nowSeconds() - t;
        t = nowSeconds();
        {
            ScopedSpan span(log, "pool.execute");
            bench::executePlan(plan);
        }
        execute = nowSeconds() - t;
        std::streambuf *const saved = std::cout.rdbuf(captured.rdbuf());
        {
            ScopedSpan span(log, "report");
            for (const bench::Exhibit *ex : exhibits) {
                const double r0 = nowSeconds();
                {
                    ScopedSpan s(log, std::string("report.") + ex->name);
                    rc = std::max(rc, ex->report(flags));
                }
                out.set(std::string("report.") + ex->name + "_s",
                        nowSeconds() - r0);
            }
        }
        std::cout.rdbuf(saved);
        bench::benchFinish();
    }
    const double wall = nowSeconds() - t0;
    const double cpu = cpuSeconds() - cpu0;
    const double rss = peakRssMb();
    // ---- end of timed region ----

    out.set("wall_s", wall);
    out.set("setup_s", setup);
    out.set("cpu_s", cpu);
    out.set("peak_rss_mb", rss);
    out.set("pool.execute_s", execute);
    out.set("points", static_cast<double>(plan.size()));
    {
        std::ofstream os("perf_stdout.txt", std::ios::binary);
        os << captured.str();
    }
    const std::string text = captured.str();
    std::size_t fails = 0;
    for (std::size_t at = text.find("[FAIL]"); at != std::string::npos;
         at = text.find("[FAIL]", at + 1))
        ++fails;
    checks.expect(rc == 0, "an exhibit report returned nonzero");
    checks.expect(fails == 0, std::to_string(fails) +
                                  " [FAIL] self-checks in the reports");

    // Plan shape: raw contributions, unique points, replay units.
    double raw = 0;
    for (const bench::Exhibit *ex : exhibits) {
        if (!ex->plan)
            continue;
        ExperimentPlan part;
        ex->plan(part);
        raw += static_cast<double>(part.size());
    }
    ExperimentPlan seeded;
    addSeeded(seeded, specs);
    raw += static_cast<double>(seeded.size());
    const auto units = replayUnits(plan.points());
    std::size_t widest = 0;
    for (const auto &u : units)
        widest = std::max(widest, u.size());
    out.set("plan.points", raw);
    out.set("plan.unique_points", static_cast<double>(plan.size()));
    out.set("plan.units", static_cast<double>(units.size()));
    out.set("plan.unit_lanes_max", static_cast<double>(widest));

    // What the timed sweep did, by the executor's own counters.
    const auto counter = [](const char *name) {
        return static_cast<double>(
            bench::metrics().counterValue(name));
    };
    out.set("store.hits", counter("cache.hit"));
    out.set("store.misses", counter("cache.miss"));
    out.set("store.corrupt", counter("cache.corrupt"));
    out.set("flat.predecodes", counter("flat.predecode"));
    out.set("replay.points", counter("replay.points"));

    double spell_events = 0, seeded_events = 0;
    for (const BehaviorId &b : planBehaviors(plan)) {
        const double n =
            static_cast<double>(bench::cachedTrace(b).eventCount());
        if (b.kind == BehaviorId::Kind::Spell)
            spell_events += n;
        for (const SynthSpec &s : specs)
            if (b.kind == BehaviorId::Kind::Synth &&
                b.key() == synthTraceKey(s))
                seeded_events += n;
    }
    out.set("spell.events", spell_events);
    out.set("seeded.events", seeded_events);

    if (o.oracle)
        checkSeededAgainstOracle(seeded, o.jobs, checks);

    if (o.traced) {
        ScopedSpan layers(log, "layers");
        if (counter("flat.predecode") > 0)
            timeFlatLayer(planBehaviors(plan), counter("flat.store") > 0,
                          log, out);
        if (counter("replay.points") > 0)
            timeReplayUnits(plan, log, out, checks);
        if (bench::resultCacheEnabled())
            timeStoreLayer(plan, counter("cache.store") > 0, log, out,
                           checks);
    }
    if (o.traced && !o.spansPath.empty() &&
        !log.writeChromeJson(o.spansPath, o.runId, o.pid))
        std::cerr << "crw-perf: could not write " << o.spansPath << '\n';

    out.set("mode", modeName(o.mode));
    out.set("checks_attempted", static_cast<double>(checks.attempted));
    out.set("checks_failed", static_cast<double>(checks.failed));
    std::ofstream os(o.resultPath);
    os << out.json() << '\n';
    return os ? 0 : 1;
}

} // namespace perf
} // namespace crw
