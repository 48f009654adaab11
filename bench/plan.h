/**
 * @file
 * Declarative experiment plans (DESIGN.md §11).
 *
 * A PlanPoint is one fully-specified replay: a captured behavior
 * (concurrency × granularity), a complete EngineConfig (scheme,
 * windows, cost model, PRW reclamation, allocation policy) and a
 * scheduling policy. An ExperimentPlan is a deduplicated set of such
 * points: each exhibit contributes the points its report needs, the
 * union is executed exactly once by the sweep executor
 * (bench/executor.h), and the reports project the shared results into
 * their tables and charts. Running `crw-bench fig11 fig12 fig13`
 * therefore replays each (behavior, config, policy) coordinate once,
 * not three times.
 */

#ifndef CRW_BENCH_PLAN_H_
#define CRW_BENCH_PLAN_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "rt/sched_core.h"
#include "spell/app.h"
#include "trace/synth.h"
#include "win/engine.h"

namespace crw {
namespace bench {

/**
 * The behavior axis of a plan point: which captured (or generated)
 * EventTrace the point replays. Historically this axis was hard-wired
 * to the spell checker's (concurrency, granularity) grid; the synth
 * exhibit adds generated behaviors, so a behavior is now either a
 * Spell corner or a SynthSpec. key() is the canonical identity — for
 * Spell it is exactly spellTraceKey(behaviorConfig(conc, gran)), so
 * every pre-existing pointConfigKey (and therefore every result-cache
 * entry and CSV) is byte-for-byte unchanged.
 */
struct BehaviorId
{
    enum class Kind : std::uint8_t { Spell, Synth };

    Kind kind = Kind::Spell;
    ConcurrencyLevel conc = ConcurrencyLevel::High;
    GranularityLevel gran = GranularityLevel::Fine;
    SynthSpec synth; ///< read only when kind == Synth

    static BehaviorId spell(ConcurrencyLevel conc,
                            GranularityLevel gran);
    static BehaviorId fromSynth(const SynthSpec &spec);

    /** Canonical behavior key (names the trace and keys the memos). */
    std::string key() const;

    /** Seed the behavior's trace is captured/generated with. */
    std::uint64_t seed() const;
};

/** One replay coordinate: behavior × engine config × policy. */
struct PlanPoint
{
    BehaviorId behavior;
    EngineConfig engine;
    SchedPolicy policy = SchedPolicy::Fifo;
};

/** A PlanPoint with the default engine config at (scheme, windows). */
PlanPoint makePlanPoint(const BehaviorId &behavior, SchemeKind scheme,
                        int windows, SchedPolicy policy);

/**
 * Canonical identity of a point, e.g.
 * "HC-fine-m1-n1|SP|w8|prw=eager|alloc=simple|cm=<costModelKey>|fifo".
 * Two points with equal keys produce bit-identical RunMetrics, so the
 * key names the slot in the executor's result store and (combined
 * with the trace checksum) the on-disk cache entry. checkInvariants
 * is excluded via engineConfigKey (it cannot change results).
 */
std::string pointConfigKey(const PlanPoint &point);

/**
 * Lockstep-batch identity of a point: the pointConfigKey coordinates
 * that must be *shared* for two points to replay in one batched pass —
 * behavior, scheme, cost model, policy — with the per-lane fields
 * (window count, PRW reclamation, allocation policy) left out. Points
 * with equal batch keys follow provably identical schedules under
 * FIFO (see trace/replay_batch.h), so the executor groups cache
 * misses by this key before fanning out to the pool.
 */
std::string pointBatchKey(const PlanPoint &point);

/** Deduplicated set of plan points, in first-added order. */
class ExperimentPlan
{
  public:
    /** Add one point; a duplicate key is a no-op. */
    void add(const PlanPoint &point);

    /** Add the schemes × windows matrix of one behavior/policy. */
    void addSweep(const BehaviorId &behavior, SchedPolicy policy,
                  const std::vector<SchemeKind> &schemes,
                  const std::vector<int> &windows);

    const std::vector<PlanPoint> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }

    /**
     * FNV-1a over the sorted point keys, as 16 hex digits: the same
     * set of points always yields the same digest, regardless of the
     * order the exhibits contributed them. Stamped into the run
     * manifest as "plan_digest".
     */
    std::string digest() const;

  private:
    std::vector<PlanPoint> points_;
    std::set<std::string> keys_;
};

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_PLAN_H_
