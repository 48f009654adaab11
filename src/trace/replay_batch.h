/**
 * @file
 * Batched lockstep replay: one forward pass over a FlatTrace drives
 * up to K engine states (DESIGN.md §14).
 *
 * Replay control flow — dispatch order, stream occupancy/blocking,
 * thread script positions — depends on the *event sequence* only,
 * never on engine state, with one exception: the working-set policy
 * family (WS, WSA) consults engine residency at each wake. Every
 * other policy input is lane-invariant by the policy determinism
 * contract (rt/sched_core.h): FIFO ignores everything, Priority reads
 * static per-thread priorities from the trace, and RoundRobin's
 * quantum accumulates shared trace charge operands. For those
 * policies the schedules of every (windows, PRW, alloc) variant of
 * one (behavior, scheme, policy, cost-model) group are therefore
 * *provably identical*, so one shared SchedCore + policy object +
 * stream/thread state can drive K engines in lockstep: a cold
 * fig11+12+13 sweep walks each trace once per scheme instead of once
 * per point. Under the working-set family the batch runs
 * optimistically — the leader lane answers each wake's residency
 * query and records a checkpoint, and every follower lane re-verifies
 * the checkpoints during its deferred replay — and reports divergence
 * on the first disagreement; the executor then replays those points
 * individually (the diverged engines are discarded, never flushed, so
 * no partial state leaks).
 *
 * Each lane still produces RunMetrics bit-identical to a per-point
 * replay: every tracker field RunMetrics reads (activity, total
 * activity, concurrency) is a pure function of the shared event
 * sequence, so ONE BehaviorTracker serves the whole batch; per-lane
 * switch-cost Distributions sample in per-lane event order; and the
 * shared core's slackness/dispatch statistics are schedule-derived —
 * identical to what K per-point cores would each record
 * (tests/win/test_batch_replay.cc pins all of this differentially).
 *
 * Within a batch only lane 0 runs the walk inline; it records the
 * engine-op stream, and BatchedEngineView::finish() replays the
 * followers from that record — per lane on the scalar tier and for
 * the sharing schemes, or in one lane-SoA pass with SIMD run kernels
 * for NS/INF on the vector tiers ($CRW_SIMD, win/simd.h, DESIGN.md
 * §16). The tier is a host-side choice only: every tier produces
 * bit-identical lane results. A per-point replay (ReplayDriver's
 * default path) is the same loop at width one.
 */

#ifndef CRW_TRACE_REPLAY_BATCH_H_
#define CRW_TRACE_REPLAY_BATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "rt/sched_core.h"
#include "trace/behavior.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/replay_state.h"
#include "trace/run_metrics.h"
#include "win/engine.h"
#include "win/simd.h"

namespace crw {

namespace detail_replay {

/**
 * The lockstep batch loop over shared control state and K lanes: the
 * one production replay loop. Internal: ReplayDriver runs it at width
 * one over its own state; BatchedReplayDriver runs it at full width.
 * @p control must be freshly constructed; lane 0 is its leader engine
 * and @p followers holds the other @p lanes - 1 (null at width one).
 *
 * @return false when a working-set-family wake found the lanes
 *         disagreeing on residency — the schedules would fork, the
 *         batch state is abandoned mid-run and must be discarded.
 *
 * @param simd_path When non-null, receives the follower pass the
 *        batch actually dispatched (BatchedEngineView::simdPathTaken):
 *        Scalar when the per-lane pass ran the followers, else the
 *        SoA tier. Written on both outcomes.
 */
bool runLockstepLoop(const EventTrace &trace, const FlatTrace &flat,
                     ReplayControl &control,
                     WindowEngine *const *followers, std::size_t lanes,
                     SimdTier *simd_path = nullptr);

/**
 * Replay coordinate for fatal diagnostics: which behavior's trace was
 * being replayed, and at which point — scheme/windows/policy at width
 * one, scheme/policy and the width for a batch. A stuck or mismatched
 * replay is almost always one bad point in a large sweep, so the bare
 * thread id alone is undebuggable.
 */
std::string replayContext(const EventTrace &trace,
                          const WindowEngine &leader, SchedPolicy policy,
                          std::size_t lanes);

} // namespace detail_replay

/**
 * Replays one trace once, advancing one engine per config in
 * lockstep. All configs must share the scheme kind (one template
 * instantiation drives the batch) and must not request
 * checkInvariants; window count, PRW reclamation, allocation policy
 * and cost model may differ per lane — none of them feed back into
 * scheduling.
 */
class BatchedReplayDriver
{
  public:
    /**
     * @param trace The captured run (not owned; must outlive this).
     * @param configs One engine configuration per lane (>= 1).
     * @param policy Ready-queue policy to re-schedule with.
     * @param flat Optional predecoded image of @p trace (not owned);
     *        when absent, run() predecodes privately.
     */
    BatchedReplayDriver(const EventTrace &trace,
                        const std::vector<EngineConfig> &configs,
                        SchedPolicy policy,
                        const FlatTrace *flat = nullptr);

    BatchedReplayDriver(const BatchedReplayDriver &) = delete;
    BatchedReplayDriver &operator=(const BatchedReplayDriver &) =
        delete;

    /**
     * Replay the whole trace across all lanes. Fatal on a second call
     * and on a stuck/mismatched trace.
     *
     * @return true on a completed lockstep run; false when a
     *         working-set batch diverged — every lane's state is then
     *         garbage and the caller must re-replay the points
     *         individually on fresh drivers.
     */
    bool run();

    std::size_t lanes() const { return 1 + followers_.size(); }

    /** Metrics of lane @p lane. Fatal before a successful run(). */
    RunMetrics metrics(std::size_t lane) const;

    WindowEngine &engine(std::size_t lane)
    {
        return lane == 0 ? ctl_.leader : *followers_[lane - 1];
    }
    const WindowEngine &engine(std::size_t lane) const
    {
        return lane == 0 ? ctl_.leader : *followers_[lane - 1];
    }
    const SchedCore &core() const { return ctl_.core; }

    /**
     * The follower pass run() actually dispatched: Scalar when the
     * per-lane pass replayed the followers (scalar tier, or the
     * sharing schemes on any tier), else the lane-SoA tier.
     * Meaningless before run().
     */
    SimdTier simdPath() const { return simdPath_; }

  private:
    const EventTrace &trace_;
    const FlatTrace *flat_;
    std::unique_ptr<FlatTrace> ownedFlat_;
    /** Lanes 1..K-1; lane 0 is ctl_.leader. */
    std::vector<std::unique_ptr<WindowEngine>> followers_;
    ReplayControl ctl_;
    SimdTier simdPath_ = SimdTier::Scalar;
    bool ran_ = false;
    bool ok_ = false;
};

} // namespace crw

#endif // CRW_TRACE_REPLAY_BATCH_H_
