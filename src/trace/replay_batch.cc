#include "trace/replay_batch.h"

#include <string>

#include "common/logging.h"
#include "win/engine_batch.h"

namespace crw {

namespace detail_replay {

std::string
replayContext(const EventTrace &trace, const WindowEngine &leader,
              SchedPolicy policy, std::size_t lanes)
{
    if (lanes == 1)
        return "behavior \"" + trace.key + "\", " +
               schemeName(leader.scheme()) + "/w" +
               std::to_string(leader.numWindows()) + "/" +
               policyName(policy);
    return "behavior \"" + trace.key + "\", " +
           schemeName(leader.scheme()) + "/" + policyName(policy) +
           ", batch of " + std::to_string(lanes);
}

} // namespace detail_replay

namespace {

using detail_replay::replayContext;

/**
 * A malformed script of thread @p tid: events after its Exit, or
 * (@p after_exit false) no Exit at its end. Out of line, cold and
 * noreturn, so the per-event end-of-script checks in the flattened
 * loop compile to never-taken branches.
 */
[[noreturn]] __attribute__((noinline, cold)) void
fatalScript(const EventTrace &trace, const WindowEngine &leader,
            SchedPolicy policy, std::size_t lanes, ThreadId tid,
            bool after_exit)
{
    const std::string who =
        std::to_string(tid) + " (" +
        trace.threads[static_cast<std::size_t>(tid)].name + ")";
    crw_fatal_unreachable(
        (after_exit ? "replay: events after Exit in thread " + who
                    : "replay: script of thread " + who +
                          " ended without Exit") +
        " — " + replayContext(trace, leader, policy, lanes));
}

/**
 * The lockstep dispatch loop: the exact state machine of the oracle
 * loop (ReplayDriver::runLegacy + runThread, replay_driver.cc) — same
 * stream/waiter/scheduler statements — with the script walk flattened
 * to an index into the predecoded arena and every engine event inlined
 * through the BatchedEngineView. The one engine-state read in the
 * control path (residency at wake, consulted by the working-set policy
 * family) is answered by the leader, recorded, and re-verified on
 * every follower lane when the drained loop hands off to
 * view.finish(). Every other policy input (static priorities, the
 * round-robin quantum's charge operands) is lane-invariant by the
 * policy determinism contract (rt/sched_core.h), so those policies
 * batch without checkpoints.
 */
// flatten: the instantiations are each large enough that gcc's
// unit-growth budget otherwise gives up on inlining the window-file
// and scheme primitives (thread(), claimAsTop(), ...) precisely where
// they fire hundreds of millions of times per sweep; forcing the full
// event path inline here is the point of the specialized loop.
template <typename SchemeT, typename PolicyT>
__attribute__((flatten)) bool
lockstepLoop(const EventTrace &trace, const FlatTrace &flat,
             ReplayControl &ctl, PolicyT &pol,
             WindowEngine *const *followers, std::size_t lanes,
             SimdTier *simd_path)
{
    SchedCore &core = ctl.core;
    std::vector<RStream> &streams = ctl.streams;
    std::vector<RThread> &threads = ctl.threads;
    BehaviorTracker &tracker = ctl.tracker;
    for (std::size_t i = 0; i < threads.size(); ++i)
        threads[i].pc = flat.threads[i].begin;
    BatchedEngineView<SchemeT> view(ctl.leader, followers, lanes);
    view.reserveOps(flat.eventCount());
    const std::uint8_t *const ops = flat.ops;
    const std::uint64_t *const operands = flat.operands;

    const auto fatalEventsAfterExit = [&](ThreadId tid) {
        fatalScript(trace, ctl.leader, core.policy(), lanes, tid, true);
    };
    const auto fatalEndedWithoutExit = [&](ThreadId tid) {
        fatalScript(trace, ctl.leader, core.policy(), lanes, tid,
                    false);
    };

    // Mirror of ReplayDriver::wakeAllSlow, bound to the concrete
    // policy type so queue placement compiles to straight-line code,
    // plus the batch contract:
    // when the policy consults residency (WS, WSA) the placement
    // consumes the *leader's* residency of the woken thread, and the
    // view records a checkpoint every follower lane re-verifies during
    // its deferred replay. A follower that disagrees would have forked
    // the schedule at that wake, so view.finish() reports the batch as
    // diverged. Residency-blind policies skip the checkpoint entirely.
    const auto wakeAllSlow = [&](SmallVec<ThreadId, 8> &waiters) {
        for (const ThreadId tid : waiters) {
            RThread &t = threads[static_cast<std::size_t>(tid)];
            if (t.state != RState::Blocked)
                continue;
            t.state = RState::Ready;
            if constexpr (PolicyT::kUsesResidency) {
                const bool resident = view.resident(tid);
                view.recordWakeCheck(tid, resident);
                pol.wake(core, tid, resident);
            } else {
                pol.wake(core, tid, false);
            }
        }
        waiters.clear();
    };
    const auto wakeAll = [&](SmallVec<ThreadId, 8> &waiters) {
        if (!waiters.empty())
            wakeAllSlow(waiters);
    };

    while (!core.idle()) {
        const ThreadId tid = core.dispatchNext();
        if constexpr (PolicyT::kHasQuantum)
            pol.resetQuantum();
        RThread &t = threads[static_cast<std::size_t>(tid)];
        crw_assert(t.state == RState::Ready);
        t.state = RState::Running;
        if (view.current() != tid) {
            const ThreadId from = view.current();
            const Cycles begin = view.now();
            view.contextSwitch(tid);
            tracker.onSwitch(from, tid, view.depth(tid), begin,
                             view.now());
        }

        std::uint32_t pc = t.pc;
        const std::uint32_t end =
            flat.threads[static_cast<std::size_t>(tid)].end;
        bool running = true;
        while (running) {
            if (pc == end)
                fatalEndedWithoutExit(tid);
            // After each handler, the dominant successor op (measured
            // on the spell traces: every Save is followed by a Charge,
            // most Restores by a Save, most Gets by a Restore) is
            // peeked and handled inline — a predictable conditional
            // branch instead of a round trip through the switch's
            // indirect dispatch. The executed event sequence is
            // exactly the oracle's.
            switch (static_cast<TraceOp>(ops[pc])) {
              case TraceOp::Save:
              save_op:
                view.save();
                tracker.onSave(tid, view.depth(tid));
                ++pc;
                if (pc != end &&
                    static_cast<TraceOp>(ops[pc]) == TraceOp::Charge)
                    goto charge_op;
                break;
              case TraceOp::Restore:
              restore_op:
                view.restore();
                tracker.onRestore(tid, view.depth(tid));
                ++pc;
                if (pc != end &&
                    static_cast<TraceOp>(ops[pc]) == TraceOp::Save)
                    goto save_op;
                break;
              case TraceOp::Charge:
              charge_op:
                view.charge(static_cast<Cycles>(operands[pc]));
                if constexpr (PolicyT::kHasQuantum) {
                    // Preemption point: the charge has executed, then
                    // the thread yields to the tail of the queue —
                    // same statement order as the oracle loop. The
                    // operand is a shared trace value, so every lane
                    // observes the identical quantum schedule.
                    if (pol.chargeExpires(
                            static_cast<Cycles>(operands[pc]))) {
                        ++pc;
                        pol.onQuantumExpiry(core, tid);
                        t.state = RState::Ready;
                        running = false;
                        break;
                    }
                }
                ++pc;
                if (pc != end) {
                    const TraceOp next = static_cast<TraceOp>(ops[pc]);
                    if (next == TraceOp::Get)
                        goto get_op;
                    if (next == TraceOp::Put)
                        goto put_op;
                    if (next == TraceOp::Save)
                        goto save_op;
                }
                break;
              case TraceOp::Put:
              put_op: {
                RStream &s = streams[operands[pc]];
                if (s.count == s.capacity) {
                    wakeAll(s.readWaiters);
                    s.writeWaiters.push_back(tid);
                    t.state = RState::Blocked;
                    running = false;
                    break;
                }
                ++s.count;
                wakeAll(s.readWaiters);
                ++pc;
                if (pc != end) {
                    const TraceOp next = static_cast<TraceOp>(ops[pc]);
                    if (next == TraceOp::Restore)
                        goto restore_op;
                    if (next == TraceOp::Put)
                        goto put_op;
                }
                break;
              }
              case TraceOp::Get:
              get_op: {
                RStream &s = streams[operands[pc]];
                if (s.count == 0) {
                    if (s.openWriters == 0) {
                        ++pc;
                        break;
                    }
                    wakeAll(s.writeWaiters);
                    s.readWaiters.push_back(tid);
                    t.state = RState::Blocked;
                    running = false;
                    break;
                }
                --s.count;
                wakeAll(s.writeWaiters);
                ++pc;
                if (pc != end &&
                    static_cast<TraceOp>(ops[pc]) == TraceOp::Restore)
                    goto restore_op;
                break;
              }
              case TraceOp::Close: {
                RStream &s = streams[operands[pc]];
                crw_assert(s.openWriters > 0);
                if (--s.openWriters == 0)
                    wakeAll(s.readWaiters);
                ++pc;
                break;
              }
              case TraceOp::Exit:
                ++pc;
                if (pc != end)
                    fatalEventsAfterExit(tid);
                view.threadExit();
                tracker.onExit(tid);
                t.state = RState::Finished;
                running = false;
                break;
            }
        }
        t.pc = pc;
    }
    // The follower lanes replay the recorded op stream here; a
    // working-set divergence surfaces as false.
    const bool ok = view.finish();
    if (simd_path)
        *simd_path = view.simdPathTaken();
    return ok;
}

} // namespace

namespace detail_replay {

bool
runLockstepLoop(const EventTrace &trace, const FlatTrace &flat,
                ReplayControl &control, WindowEngine *const *followers,
                std::size_t lanes, SimdTier *simd_path)
{
    // One instantiation per (scheme, policy) pair: the scheme's event
    // bodies and the policy's placement verbs and quantum branches
    // compile to straight-line code inside the flattened loop.
    return visitSchemeClass(control.leader.scheme(), [&](auto scheme_tag) {
        using SchemeT = typename decltype(scheme_tag)::type;
        return control.policy.visit([&](auto &pol) {
            return lockstepLoop<SchemeT>(trace, flat, control, pol,
                                         followers, lanes, simd_path);
        });
    });
}

} // namespace detail_replay

namespace {

/** Lane 0's configuration; fatal on an empty batch. */
const EngineConfig &
leaderConfig(const EventTrace &trace,
             const std::vector<EngineConfig> &configs)
{
    if (configs.empty())
        crw_fatal << "BatchedReplayDriver: empty config batch for "
                     "behavior \""
                  << trace.key << "\"";
    return configs.front();
}

} // namespace

BatchedReplayDriver::BatchedReplayDriver(
    const EventTrace &trace, const std::vector<EngineConfig> &configs,
    SchedPolicy policy, const FlatTrace *flat)
    : trace_(trace),
      flat_(flat),
      ctl_(trace, leaderConfig(trace, configs), policy)
{
    followers_.reserve(configs.size() - 1);
    for (std::size_t l = 0; l < configs.size(); ++l) {
        const EngineConfig &config = configs[l];
        if (config.scheme != configs.front().scheme)
            crw_fatal << "BatchedReplayDriver: mixed schemes in one "
                         "batch ("
                      << schemeName(configs.front().scheme) << " vs "
                      << schemeName(config.scheme)
                      << ") — one lockstep instantiation drives one "
                         "concrete scheme class";
        if (config.checkInvariants)
            crw_fatal << "BatchedReplayDriver: checkInvariants is an "
                         "oracle-path debugging aid; batched replay "
                         "refuses it (behavior \""
                      << trace.key << "\", "
                      << schemeName(config.scheme) << "/"
                      << policyName(policy) << ")";
        if (l == 0)
            continue; // lane 0 is ctl_.leader
        followers_.push_back(std::make_unique<WindowEngine>(config));
        for (std::size_t i = 0; i < trace.threads.size(); ++i)
            followers_.back()->addThread(static_cast<ThreadId>(i));
    }
    crw_assert(!flat_ || flat_->threads.size() == ctl_.threads.size());
}

bool
BatchedReplayDriver::run()
{
    if (ran_)
        crw_fatal << "BatchedReplayDriver::run() called twice ("
                  << replayContext(trace_, ctl_.leader,
                                   ctl_.core.policy(), lanes())
                  << ")";
    ran_ = true;

    if (!flat_) {
        ownedFlat_ =
            std::make_unique<FlatTrace>(FlatTrace::build(trace_));
        flat_ = ownedFlat_.get();
    }

    // The raw follower array the loop iterates (unique_ptr unwrapped
    // off the hot path).
    std::vector<WindowEngine *> followers;
    followers.reserve(followers_.size());
    for (const auto &engine : followers_)
        followers.push_back(engine.get());

    ok_ = detail_replay::runLockstepLoop(trace_, *flat_, ctl_,
                                         followers.data(), lanes(),
                                         &simdPath_);
    if (!ok_)
        return false;

    for (std::size_t i = 0; i < ctl_.threads.size(); ++i) {
        if (ctl_.threads[i].state != RState::Finished)
            crw_fatal << "replay deadlock: thread " << i << " ("
                      << trace_.threads[i].name
                      << ") never finished — trace/config mismatch, "
                      << replayContext(trace_, ctl_.leader,
                                       ctl_.core.policy(), lanes());
    }
    // One finish at lane 0's clock: the sole clock-dependent tracker
    // state is the granularity distribution, which no RunMetrics
    // field reads (see trace/replay_state.h).
    ctl_.tracker.finish(ctl_.leader.now());
    return true;
}

RunMetrics
BatchedReplayDriver::metrics(std::size_t lane) const
{
    if (!ran_ || !ok_)
        crw_fatal << "BatchedReplayDriver::metrics() before a "
                     "successful run() — "
                  << (ran_ ? "the batch diverged and its lanes are "
                             "garbage"
                           : "the engines and trackers are "
                             "unpopulated")
                  << " ("
                  << replayContext(trace_, ctl_.leader,
                                   ctl_.core.policy(), lanes())
                  << ")";
    return collectRunMetrics(engine(lane), ctl_.tracker,
                             ctl_.core.slackness(), ctl_.core.policy(),
                             static_cast<int>(ctl_.threads.size()),
                             trace_.misspelled);
}

} // namespace crw
