/**
 * @file
 * The replay state machine's control state, shared by the per-point
 * ReplayDriver (replay_driver.h) and the lockstep batched driver
 * (replay_batch.h). One schedule is one ReplayControl: a SchedCore
 * and its policy, one RStream per bounded stream, one RThread per
 * application thread, the BehaviorTracker the schedule's events feed,
 * and the leader engine — lane 0, the one engine the control flow
 * ever reads. A per-point driver replays that engine alone; the
 * batched driver drives K - 1 follower engines from the same
 * instance, which is exactly what makes a batch lockstep — control
 * flow lives here and only here, the other lanes' engine state lives
 * per lane.
 */

#ifndef CRW_TRACE_REPLAY_STATE_H_
#define CRW_TRACE_REPLAY_STATE_H_

#include <cstdint>
#include <vector>

#include "common/small_vec.h"
#include "common/types.h"
#include "rt/sched_core.h"
#include "trace/behavior.h"
#include "win/engine.h"
#include "trace/event_trace.h"

namespace crw {

/**
 * Replay image of one bounded stream (occupancy + waiters). The
 * waiter lists hold at most one entry per application thread, so the
 * inline capacity makes parking/waking allocation-free.
 */
struct RStream
{
    std::uint32_t capacity = 0;
    std::uint32_t count = 0;
    int openWriters = 0;
    SmallVec<ThreadId, 8> readWaiters;
    SmallVec<ThreadId, 8> writeWaiters;
};

enum class RState : std::uint8_t {
    Ready,
    Running,
    Blocked,
    Finished
};

struct RThread
{
    TraceCursor cursor;
    /** Lockstep loop: index of the next event in the flat arena. */
    std::uint32_t pc = 0;
    RState state = RState::Ready;
};

/**
 * A schedule's start state. Construction spawns every trace thread in
 * tid order, placed by the policy with the trace's priorities —
 * exactly as Scheduler::spawn — and registers each with the leader;
 * a batch's owner registers the same tids with every follower
 * (placement never reads an engine).
 */
struct ReplayControl
{
    ReplayControl(const EventTrace &trace,
                  const EngineConfig &leader_config, SchedPolicy sched)
        : core(sched), policy(sched), tracker(64), leader(leader_config)
    {
        streams.resize(trace.streams.size());
        for (std::size_t i = 0; i < trace.streams.size(); ++i) {
            streams[i].capacity = trace.streams[i].capacity;
            streams[i].openWriters =
                static_cast<int>(trace.streams[i].writers);
        }
        threads.reserve(trace.threads.size());
        for (std::size_t i = 0; i < trace.threads.size(); ++i) {
            const ThreadId tid = static_cast<ThreadId>(i);
            threads.push_back(RThread{TraceCursor(trace.threads[i].code),
                                      0, RState::Ready});
            policy.noteSpawn(tid, trace.threads[i].priority);
            policy.onSpawn(core, tid);
            leader.addThread(tid);
        }
    }

    SchedCore core;
    SchedPolicyBox policy;
    std::vector<RStream> streams;
    std::vector<RThread> threads;
    /**
     * One tracker for all lanes: every field RunMetrics reads from it
     * depends only on the shared event sequence (the granularity
     * distribution is the lone per-clock member, and nothing collects
     * it from a replay).
     */
    BehaviorTracker tracker;
    /**
     * Lane 0: the engine whose residency a working-set wake consults
     * and whose call depths the tracker records. Kept in the same
     * object as the rest of the control state, so the lockstep loop
     * reaches all of it from one base register: with the leader
     * allocated apart, per-point replay ran ~5% slower.
     */
    WindowEngine leader;
};

} // namespace crw

#endif // CRW_TRACE_REPLAY_STATE_H_
