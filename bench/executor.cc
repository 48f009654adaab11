#include "bench/executor.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <utility>

#include "bench/harness.h"
#include "bench/result_cache.h"
#include "common/chart.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "obs/ring.h"
#include "obs/trace_json.h"
#include "spell/capture.h"
#include "trace/flat_trace_io.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "win/simd.h"

namespace crw {
namespace bench {

namespace {

bool g_cacheEnabled = true;
bool g_flatCacheEnabled = true;

/**
 * One behavior's memoized trace plus its payload checksum: the hash
 * loadTraceFile verified or saveTraceFile computed, so no trace is
 * hashed twice.
 */
struct TraceEntry
{
    EventTrace trace;
    std::uint64_t checksum = 0;
};

/** cachedTrace's memo. Filled serially (executePoints captures before
 *  it fans out); sweep workers only read it. */
std::map<std::string, TraceEntry> g_traces;

/**
 * One behavior's flat arena, attached or predecoded exactly once: the
 * first caller builds it under the slot's own mutex, a concurrent
 * caller for the same behavior waits for it, and every caller gets
 * the same FlatTrace.
 */
struct FlatSlot
{
    std::mutex mu;
    bool ready = false;
    FlatTrace flat;
};

/** g_flatMu guards only the lookup and insert of a slot, never a
 *  build, so distinct behaviors attach, predecode and store at the
 *  same time. std::map nodes stay put, so slot references outlive
 *  the lock. */
std::mutex g_flatMu;
std::map<std::string, FlatSlot> g_flatSlots;

// Result store: pointConfigKey -> RunMetrics. std::map references
// stay valid across inserts, so pointResult() can hand out stable
// references while the executor keeps filling the store.
std::mutex g_storeMu;
std::map<std::string, RunMetrics> g_store;

const RunMetrics *
storeFind(const std::string &key)
{
    std::lock_guard<std::mutex> lock(g_storeMu);
    const auto it = g_store.find(key);
    return it == g_store.end() ? nullptr : &it->second;
}

const RunMetrics &
storeInsert(const std::string &key, RunMetrics metrics)
{
    std::lock_guard<std::mutex> lock(g_storeMu);
    return g_store.emplace(key, std::move(metrics)).first->second;
}

/**
 * Lockstep batch width cap: $CRW_REPLAY_BATCH through the strict
 * parseReplayBatchCap, falling back to the ISA-aware default. Read
 * per executePoints call so tests can flip the env var between plans.
 */
std::size_t
replayBatchCap()
{
    return parseReplayBatchCap(std::getenv("CRW_REPLAY_BATCH"),
                               defaultReplayBatchCap());
}

/** Raise the named counter to at least @p v (CAS max — the result is
 *  independent of the order concurrent batches finish in). */
void
counterAtLeast(const std::string &name, std::uint64_t v)
{
    std::atomic<std::uint64_t> &c = metrics().counter(name);
    std::uint64_t cur = c.load(std::memory_order_relaxed);
    while (cur < v &&
           !c.compare_exchange_weak(cur, v,
                                    std::memory_order_relaxed)) {
    }
}

/**
 * Host-only stage ledger of one executePoints call: lap(name)
 * publishes the wall time since the previous lap (or construction) as
 * the host sample host.stage.<name>_s — a no-op with obs off.
 */
class StageClock
{
  public:
    void
    lap(const char *name)
    {
        const auto now = std::chrono::steady_clock::now();
        if (obsEnabled())
            metrics().sample(std::string("host.stage.") + name + "_s",
                             std::chrono::duration<double>(now - last_)
                                 .count());
        last_ = now;
    }

  private:
    std::chrono::steady_clock::time_point last_ =
        std::chrono::steady_clock::now();
};

/** A point's obs label: "<trace key>/<scheme>/w<windows>/<policy>". */
std::string
pointLabel(const std::string &trace_key, const EngineConfig &config,
           SchedPolicy policy)
{
    return trace_key + "/" + schemeName(config.scheme) + "/w" +
           std::to_string(config.numWindows) + "/" + policyName(policy);
}

/**
 * Publish one replayed point's obs record (a no-op with obs off): the
 * engine's point record plus the schedule statistics of the core that
 * drove it, merged under the point's label, and the point's manifest
 * coverage. Every lane of a lockstep batch publishes its batch's
 * shared core: its schedule statistics are what each per-point core
 * would have recorded (the schedules are identical — that is what
 * made the batch sound), so the merged records stay bit-identical to
 * an unbatched run.
 */
void
publishPoint(const std::string &trace_key, const EngineConfig &config,
             SchedPolicy policy, const WindowEngine &engine,
             const SchedCore &core)
{
    if (!obsEnabled())
        return;
    obs::PointRecord rec = obs::pointFromEngine(engine);
    obs::publishSchedCore(core, rec);
    metrics().mergePoint(pointLabel(trace_key, config, policy), rec);
    manifestNote("schemes", schemeName(config.scheme));
    manifestNote("windows", std::to_string(config.numWindows));
    manifestNote("policies", policyName(policy));
}

/**
 * Replay one lockstep unit (>= 2 lanes) and write each lane's metrics
 * into @p results at the lane's miss index. A diverged working-set
 * batch is discarded whole and its points re-replayed individually
 * through replayPoint() — which then does the per-point bookkeeping
 * itself, so replay.points counts every replayed point exactly once
 * on either outcome. @p trace and @p flat are the unit's behavior's.
 */
void
runLockstepUnit(const std::vector<PlanPoint> &misses,
                const std::vector<std::size_t> &unit,
                const EventTrace &trace, const FlatTrace &flat,
                std::vector<RunMetrics> &results)
{
    const PlanPoint &p0 = misses[unit[0]];
    std::vector<EngineConfig> configs;
    configs.reserve(unit.size());
    for (const std::size_t i : unit)
        configs.push_back(misses[i].engine);

    BatchedReplayDriver driver(trace, configs, p0.policy, &flat);
    if (!driver.run()) {
        metrics().add("replay.batch_fallback", 1);
        ringPublish(obs::RingEventCode::ReplayBatchFallback,
                    static_cast<std::uint32_t>(unit.size()), 0);
        for (const std::size_t i : unit) {
            const PlanPoint &p = misses[i];
            results[i] = replayPoint(trace, p.engine, p.policy, &flat);
        }
        return;
    }

    metrics().add("replay.batches", 1);
    metrics().add("replay.batched_points", unit.size());
    counterAtLeast("replay.batch_width", unit.size());
    ringPublish(obs::RingEventCode::ReplayBatch,
                static_cast<std::uint32_t>(unit.size()), 0);
    // Which follower pass the batch took (win/simd.h): the counter
    // records the widest tier any batch used this session, the ring
    // event every batch's tier and width. The driver reports the pass
    // it dispatched, not the ambient tier — the sharing schemes
    // always take the scalar per-lane pass and must not claim a
    // vector pass.
    const SimdTier tier = driver.simdPath();
    counterAtLeast("replay.simd_path",
                   static_cast<std::uint64_t>(tier));
    ringPublish(obs::RingEventCode::ReplaySimd,
                static_cast<std::uint32_t>(tier), unit.size());
    for (std::size_t lane = 0; lane < unit.size(); ++lane) {
        const PlanPoint &p = misses[unit[lane]];
        metrics().add("replay.points", 1);
        ringPublish(obs::RingEventCode::ReplayPoint,
                    static_cast<std::uint32_t>(p.engine.numWindows),
                    0);
        results[unit[lane]] = driver.metrics(lane);
        publishPoint(trace.key, p.engine, p.policy, driver.engine(lane),
                     driver.core());
    }
}

/**
 * Attach the stored flat arena of @p trace, else predecode it (and,
 * with the flat store on, store it), counting flat.attach or
 * flat.predecode (+ flat.store) once. Safe to run for distinct traces
 * at the same time: each has its own arena file.
 */
FlatTrace
attachOrPredecode(const EventTrace &trace, std::uint64_t checksum)
{
    if (!g_flatCacheEnabled) {
        metrics().add("flat.predecode", 1);
        ringPublish(obs::RingEventCode::FlatPredecode, 0, checksum);
        return FlatTrace::build(trace);
    }
    // Warm path: attach the predecoded arenas straight off disk. Any
    // validation failure (absent file, stale version, damage) silently
    // falls through to an in-memory rebuild.
    const std::string path =
        outputPath("flat/" + flatTraceFileName(checksum));
    FlatTrace flat;
    if (loadFlatTrace(path, checksum, flat)) {
        metrics().add("flat.attach", 1);
        ringPublish(obs::RingEventCode::FlatAttach, 0, checksum);
        return flat;
    }
    flat = FlatTrace::build(trace);
    metrics().add("flat.predecode", 1);
    ringPublish(obs::RingEventCode::FlatPredecode, 0, checksum);
    std::string err;
    if (saveFlatTrace(flat, checksum, path, &err)) {
        metrics().add("flat.store", 1);
        ringPublish(obs::RingEventCode::FlatStore, 0, checksum);
    } else {
        std::cerr << "warning: could not store flat trace at " << path
                  << ": " << err << '\n';
    }
    return flat;
}

/**
 * cachedTrace's memo entry for @p behavior: in-memory first, then the
 * disk cache, else one capture or generation (see cachedTrace).
 */
const TraceEntry &
traceEntry(const BehaviorId &behavior)
{
    const std::string key = behavior.key();

    // Spell behaviors stamp their corpus size into the trace file
    // name and header; synthetic traces carry no corpus (c0).
    const bool is_spell = behavior.kind == BehaviorId::Kind::Spell;
    const SpellConfig cfg =
        is_spell ? behaviorConfig(behavior.conc, behavior.gran)
                 : SpellConfig{};
    const std::uint64_t seed = behavior.seed();
    const std::uint64_t corpus_bytes = is_spell ? cfg.corpusBytes : 0;
    if (obsEnabled()) {
        manifestNote("behaviors", key);
        manifestNote("seed", std::to_string(seed));
    }

    const auto hit = g_traces.find(key);
    if (hit != g_traces.end())
        return hit->second;
    const std::string path = outputPath(
        "traces/" + key + "-s" + std::to_string(seed) + "-c" +
        std::to_string(corpus_bytes) + ".trace");

    TraceEntry entry;
    std::string err;
    if (loadTraceFile(path, entry.trace, &err, &entry.checksum)) {
        if (entry.trace.key == key && entry.trace.seed == seed &&
            entry.trace.corpusBytes == corpus_bytes)
            return g_traces.emplace(key, std::move(entry))
                .first->second;
        std::cerr << "note: " << path
                  << " is for a different workload; re-capturing\n";
    }

    if (is_spell) {
        const SpellWorkload wl = SpellWorkload::make(cfg);
        entry.trace = captureSpellTrace(wl, cfg);
    } else {
        entry.trace = generateSynthTrace(behavior.synth);
    }
    if (!saveTraceFile(entry.trace, path, &err, &entry.checksum))
        std::cerr << "warning: could not cache trace at " << path
                  << ": " << err << '\n';
    return g_traces.emplace(key, std::move(entry)).first->second;
}

/** A trace's encoded script bytes: the cost proxy that orders the
 *  predecode fan-out (it tracks the event count without a walk). */
std::uint64_t
scriptBytes(const EventTrace &trace)
{
    std::uint64_t n = 0;
    for (const TraceThreadInfo &t : trace.threads)
        n += t.code.size();
    return n;
}

/**
 * Run every @p points entry not already in the store: capture the
 * traces (serially — that fills the trace memo), probe the result
 * cache, attach or predecode the missed behaviors' flat arenas and
 * replay the misses on the worker pool, persist fresh results. Each
 * stage that runs publishes its wall time (StageClock).
 */
void
executePoints(const std::vector<PlanPoint> &points)
{
    // Deduplicate against the store and within the batch, preserving
    // plan order so work claiming is deterministic.
    std::vector<PlanPoint> todo;
    std::vector<std::string> todoKeys;
    {
        std::set<std::string> batch;
        for (const PlanPoint &p : points) {
            const std::string key = pointConfigKey(p);
            if (!batch.insert(key).second)
                continue;
            if (storeFind(key))
                continue;
            todo.push_back(p);
            todoKeys.push_back(key);
        }
    }

    // Manifest coverage for every requested point, replayed or not:
    // a warm-cache run performs zero replays, and replayPoint() — the
    // seed's only stamping site — never fires.
    if (obsEnabled()) {
        for (const PlanPoint &p : points) {
            manifestNote("schemes", schemeName(p.engine.scheme));
            manifestNote("windows",
                         std::to_string(p.engine.numWindows));
            manifestNote("policies", policyName(p.policy));
        }
    }
    if (todo.empty())
        return;

    // Capture serially: this fills the trace memo, which later stages
    // only read. The flat arenas are deliberately NOT touched yet: a
    // fully warm run must resolve every point from the result store
    // below without paying a predecode or even an attach.
    StageClock stage;
    for (const PlanPoint &p : todo)
        cachedTrace(p.behavior);
    stage.lap("capture");

    const bool use_cache = g_cacheEnabled;
    std::vector<PlanPoint> misses;
    std::vector<std::string> missKeys;
    std::vector<std::string> missCacheKeys;
    for (std::size_t i = 0; i < todo.size(); ++i) {
        const PlanPoint &p = todo[i];
        const std::string cache_key = resultCacheKey(
            todoKeys[i], cachedTraceChecksum(p.behavior));
        RunMetrics m;
        if (use_cache && loadCachedResult(cache_key, m)) {
            storeInsert(todoKeys[i], std::move(m));
            metrics().add("cache.hit", 1);
            ringPublish(obs::RingEventCode::CacheHit, 0, 0);
            continue;
        }
        metrics().add("cache.miss", 1);
        ringPublish(obs::RingEventCode::CacheMiss, 0, 0);
        misses.push_back(p);
        missKeys.push_back(todoKeys[i]);
        missCacheKeys.push_back(cache_key);
    }
    stage.lap("probe");
    if (misses.empty())
        return;

    // Only behaviors that actually replay need their flat arenas.
    // Their traces and checksums are resolved here, on this thread,
    // so no worker touches the trace memo; the workers then attach or
    // predecode one behavior each (its own once-slot, see
    // cachedFlatTrace), longest trace first.
    std::vector<BehaviorId> behaviors;
    std::vector<const TraceEntry *> entries;
    std::vector<std::size_t> behaviorOf(misses.size());
    {
        std::map<std::string, std::size_t> index;
        for (std::size_t i = 0; i < misses.size(); ++i) {
            const BehaviorId &b = misses[i].behavior;
            const auto ins = index.emplace(b.key(), behaviors.size());
            if (ins.second) {
                behaviors.push_back(b);
                entries.push_back(&traceEntry(b));
            }
            behaviorOf[i] = ins.first->second;
        }
    }
    std::vector<std::vector<std::size_t>> singles(behaviors.size());
    std::vector<std::uint64_t> bytes(behaviors.size());
    for (std::size_t b = 0; b < behaviors.size(); ++b) {
        singles[b] = {b};
        bytes[b] = scriptBytes(entries[b]->trace);
    }
    const std::vector<std::size_t> byLength =
        longestFirstOrder(singles, bytes);
    std::vector<const FlatTrace *> flats(behaviors.size());
    ParallelSweep(sweepJobs(), "host.predecode.worker_busy_s")
        .run(behaviors.size(), [&](std::size_t k) {
            const std::size_t b = byLength[k];
            flats[b] = &cachedFlatTrace(behaviors[b], entries[b]->trace,
                                        entries[b]->checksum);
        });
    stage.lap("flat");

    // Group the misses into lockstep batches: points sharing a
    // pointBatchKey (behavior, scheme, cost model, policy) follow
    // identical schedules and replay in one pass over the trace
    // (trace/replay_batch.h) — a cold fig11+fig12+fig13 run walks
    // each trace once per scheme instead of once per point. The
    // per-point path remains for width-1 groups, invariant-checking
    // points and trace-recording runs (those two replay on the
    // oracle loop), and when CRW_REPLAY_BATCH=0 or CRW_REPLAY_FAST=0
    // pins it off. Units are dispatched longest first (LPT,
    // longestFirstOrder) and the pool claims them one at a time, so
    // the heaviest walks start first and the light ones fill in.
    const std::size_t cap = replayBatchCap();
    const bool batching =
        cap > 1 && productionReplayEnabled() && !traceRequested();
    std::vector<std::vector<std::size_t>> units;
    if (batching) {
        std::map<std::string, std::vector<std::size_t>> groups;
        for (std::size_t i = 0; i < misses.size(); ++i) {
            if (misses[i].engine.checkInvariants) {
                units.push_back({i});
                continue;
            }
            groups[pointBatchKey(misses[i])].push_back(i);
        }
        for (auto &entry : groups) {
            const std::vector<std::size_t> &idx = entry.second;
            for (std::size_t at = 0; at < idx.size(); at += cap) {
                const std::size_t n = std::min(cap, idx.size() - at);
                units.emplace_back(idx.begin() +
                                       static_cast<std::ptrdiff_t>(at),
                                   idx.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           at + n));
            }
        }
    } else {
        for (std::size_t i = 0; i < misses.size(); ++i)
            units.push_back({i});
    }

    std::vector<std::uint64_t> events(misses.size());
    for (std::size_t i = 0; i < misses.size(); ++i)
        events[i] = flats[behaviorOf[i]]->eventCount();
    const std::vector<std::size_t> order =
        longestFirstOrder(units, events);

    std::vector<RunMetrics> results(misses.size());
    const ParallelSweep pool(sweepJobs(), "host.worker_busy_s");
    pool.run(units.size(), [&](std::size_t k) {
        const std::vector<std::size_t> &unit = units[order[k]];
        const std::size_t b = behaviorOf[unit[0]];
        const EventTrace &trace = entries[b]->trace;
        if (unit.size() == 1) {
            const PlanPoint &p = misses[unit[0]];
            results[unit[0]] =
                replayPoint(trace, p.engine, p.policy, flats[b]);
            return;
        }
        runLockstepUnit(misses, unit, trace, *flats[b], results);
    });
    stage.lap("replay");

    for (std::size_t i = 0; i < misses.size(); ++i) {
        storeInsert(missKeys[i], std::move(results[i]));
        if (use_cache) {
            std::lock_guard<std::mutex> lock(g_storeMu);
            if (storeCachedResult(missCacheKeys[i],
                                  g_store.at(missKeys[i]))) {
                metrics().add("cache.store", 1);
                ringPublish(obs::RingEventCode::CacheStore, 0, 0);
            }
        }
    }
    stage.lap("store");
}

} // namespace

std::size_t
parseReplayBatchCap(const char *text, std::size_t fallback)
{
    if (!text || !*text)
        return fallback;
    errno = 0;
    char *rest = nullptr;
    const long v = std::strtol(text, &rest, 10);
    if (rest == text || *rest != '\0' || errno == ERANGE || v < 0) {
        std::cerr << "warning: invalid replay batch cap \"" << text
                  << "\"; using " << fallback << '\n';
        return fallback;
    }
    if (static_cast<unsigned long>(v) > kMaxReplayBatch) {
        std::cerr << "warning: replay batch cap " << v
                  << " clamped to " << kMaxReplayBatch << '\n';
        return kMaxReplayBatch;
    }
    return static_cast<std::size_t>(v);
}

std::vector<std::size_t>
longestFirstOrder(const std::vector<std::vector<std::size_t>> &units,
                  const std::vector<std::uint64_t> &pointEvents)
{
    std::vector<std::uint64_t> cost(units.size(), 0);
    for (std::size_t u = 0; u < units.size(); ++u)
        for (const std::size_t i : units[u])
            cost[u] += pointEvents[i];
    std::vector<std::size_t> order(units.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&cost](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

std::size_t
defaultReplayBatchCap()
{
    return effectiveSimdTier() == SimdTier::Avx2 ? 32 : 16;
}

void
setResultCacheEnabled(bool enabled)
{
    g_cacheEnabled = enabled;
}

bool
resultCacheEnabled()
{
    return g_cacheEnabled;
}

void
setFlatCacheEnabled(bool enabled)
{
    g_flatCacheEnabled = enabled;
}

bool
flatCacheEnabled()
{
    return g_flatCacheEnabled;
}

void
executePlan(const ExperimentPlan &plan)
{
    executePoints(plan.points());
}

const RunMetrics &
pointResult(const PlanPoint &point)
{
    const std::string key = pointConfigKey(point);
    if (const RunMetrics *hit = storeFind(key))
        return *hit;
    executePoints({point});
    std::lock_guard<std::mutex> lock(g_storeMu);
    return g_store.at(key);
}

const EventTrace &
cachedTrace(const BehaviorId &behavior)
{
    return traceEntry(behavior).trace;
}

std::uint64_t
cachedTraceChecksum(const BehaviorId &behavior)
{
    return traceEntry(behavior).checksum;
}

const FlatTrace &
cachedFlatTrace(const BehaviorId &behavior, const EventTrace &trace,
                std::uint64_t checksum)
{
    FlatSlot *slot;
    {
        std::lock_guard<std::mutex> lock(g_flatMu);
        slot = &g_flatSlots[behavior.key()];
    }
    std::lock_guard<std::mutex> lock(slot->mu);
    if (!slot->ready) {
        slot->flat = attachOrPredecode(trace, checksum);
        slot->ready = true;
    }
    return slot->flat;
}

const FlatTrace &
cachedFlatTrace(const BehaviorId &behavior)
{
    const TraceEntry &entry = traceEntry(behavior);
    return cachedFlatTrace(behavior, entry.trace, entry.checksum);
}

RunMetrics
replayPoint(const EventTrace &trace, const EngineConfig &engine,
            SchedPolicy policy, const FlatTrace *flat)
{
    metrics().add("replay.points", 1);
    ringPublish(obs::RingEventCode::ReplayPoint,
                static_cast<std::uint32_t>(engine.numWindows), 0);
    ReplayDriver driver(trace, engine, policy, flat);
    // Timeline recording is bounded to the paper's headline window
    // count so a full sweep doesn't emit one track per point; the
    // observer moves only these points onto the oracle loop.
    if (traceRequested() && engine.numWindows == 8) {
        obs::EngineTimeline timeline(pointLabel(trace.key, engine, policy),
                                     traceSpanLimit());
        driver.engine().setObserver(&timeline);
        driver.run();
        driver.engine().setObserver(nullptr);
        traceWriter().addTrack(timeline.take());
    } else {
        driver.run();
    }
    publishPoint(trace.key, engine, policy, driver.engine(),
                 driver.core());
    return driver.metrics();
}

const std::vector<int> &
defaultWindowSweep()
{
    static const std::vector<int> kSweep = {4,  5,  6,  7,  8,  10, 12,
                                            16, 20, 24, 28, 32};
    return kSweep;
}

const std::vector<SchemeKind> &
evaluatedSchemes()
{
    static const std::vector<SchemeKind> kSchemes = {
        SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP};
    return kSchemes;
}

SchemeSweep
sweepSchemes(const BehaviorId &behavior, SchedPolicy policy,
             const std::vector<int> &windows)
{
    const std::vector<SchemeKind> &schemes = evaluatedSchemes();

    std::vector<PlanPoint> pts;
    pts.reserve(schemes.size() * windows.size());
    for (const SchemeKind scheme : schemes)
        for (const int w : windows)
            pts.push_back(makePlanPoint(behavior, scheme, w, policy));
    executePoints(pts);

    SchemeSweep sweep;
    sweep.windows = windows;
    sweep.bySchemeByWindow.assign(
        schemes.size(), std::vector<RunMetrics>(windows.size()));
    for (std::size_t si = 0; si < schemes.size(); ++si)
        for (std::size_t wi = 0; wi < windows.size(); ++wi)
            sweep.bySchemeByWindow[si][wi] = pointResult(
                makePlanPoint(behavior, schemes[si], windows[wi],
                              policy));
    return sweep;
}

void
emitSweepPanel(const std::string &title, const std::string &yLabel,
               const SchemeSweep &sweep,
               double (*metric)(const RunMetrics &),
               const std::string &csvName)
{
    std::vector<std::string> headers{"windows"};
    for (const SchemeKind s : evaluatedSchemes())
        headers.emplace_back(schemeName(s));
    Table table(std::move(headers));

    AsciiChart chart(title, "number of windows", yLabel);
    chart.setYFromZero(true);

    for (std::size_t si = 0; si < evaluatedSchemes().size(); ++si) {
        ChartSeries series;
        series.name = schemeName(evaluatedSchemes()[si]);
        for (std::size_t wi = 0; wi < sweep.windows.size(); ++wi) {
            series.xs.push_back(sweep.windows[wi]);
            series.ys.push_back(metric(sweep.at(si, wi)));
        }
        chart.addSeries(std::move(series));
    }
    for (std::size_t wi = 0; wi < sweep.windows.size(); ++wi) {
        std::vector<std::string> row{
            std::to_string(sweep.windows[wi])};
        for (std::size_t si = 0; si < evaluatedSchemes().size(); ++si)
            row.push_back(formatDouble(metric(sweep.at(si, wi)), 4));
        table.addRow(std::move(row));
    }
    emitFigure(title, "number of windows", yLabel, table, chart,
               csvName);
}

} // namespace bench
} // namespace crw
