#include "trace/replay_driver.h"

#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "trace/replay_batch.h"

namespace crw {
namespace {

/** CRW_REPLAY_FAST=0 pins Auto-path drivers to the oracle loop. */
bool
productionEnabledByEnv()
{
    const char *v = std::getenv("CRW_REPLAY_FAST");
    return !(v && v[0] == '0' && v[1] == '\0');
}

} // namespace

ReplayDriver::ReplayDriver(const EventTrace &trace,
                           const EngineConfig &engine_config,
                           SchedPolicy policy, const FlatTrace *flat)
    : trace_(trace),
      flat_(flat),
      ctl_(trace, engine_config, policy)
{
    // The tracker is driven directly from the dispatch loops (a
    // devirtualized call on the final class) rather than through
    // WindowEngine's observer hook; the callbacks and arguments are
    // identical to what the engine would deliver.
    crw_assert(!flat_ || flat_->threads.size() == ctl_.threads.size());
}

void
ReplayDriver::wakeAllSlow(SmallVec<ThreadId, 8> &waiters)
{
    // Mirror of Stream::wakeAll + Scheduler::wake: wake-all with a
    // state re-check, queue placement decided by the policy against
    // *this* engine's residency at wake time.
    for (const ThreadId tid : waiters) {
        RThread &t = ctl_.threads[static_cast<std::size_t>(tid)];
        if (t.state != RState::Blocked)
            continue;
        t.state = RState::Ready;
        ctl_.policy.wake(ctl_.core, tid, ctl_.leader.isResident(tid));
    }
    waiters.clear();
}

void
ReplayDriver::fatalEventsAfterExit(ThreadId tid)
{
    crw_fatal_unreachable(
        "replay: events after Exit in thread " + std::to_string(tid) +
        " (" + trace_.threads[static_cast<std::size_t>(tid)].name +
        ") — " + context());
}

void
ReplayDriver::fatalEndedWithoutExit(ThreadId tid)
{
    crw_fatal_unreachable(
        "replay: script of thread " + std::to_string(tid) + " (" +
        trace_.threads[static_cast<std::size_t>(tid)].name +
        ") ended without Exit — " + context());
}

std::string
ReplayDriver::context() const
{
    return detail_replay::replayContext(trace_, ctl_.leader,
                                        ctl_.core.policy(), 1);
}

void
ReplayDriver::runThread(ThreadId tid)
{
    RThread &t = ctl_.threads[static_cast<std::size_t>(tid)];
    TraceCursor &cur = t.cursor;
    std::uint64_t operand;

    while (!cur.atEnd()) {
        const TraceOp op = cur.peek(operand);
        switch (op) {
          case TraceOp::Save:
            ctl_.leader.save();
            ctl_.tracker.onSave(tid, ctl_.leader.depthOf(tid));
            cur.advance();
            break;
          case TraceOp::Restore:
            ctl_.leader.restore();
            ctl_.tracker.onRestore(tid, ctl_.leader.depthOf(tid));
            cur.advance();
            break;
          case TraceOp::Charge:
            ctl_.leader.charge(static_cast<Cycles>(operand));
            cur.advance();
            // Round-robin preemption point: the charge has executed
            // (clock advanced, cursor moved), then the thread yields
            // back to the tail of the queue. chargeExpires is
            // identically false for quantum-less policies.
            if (ctl_.policy.chargeExpires(
                    static_cast<Cycles>(operand))) {
                ctl_.policy.onQuantumExpiry(ctl_.core, tid);
                t.state = RState::Ready;
                return;
            }
            break;
          case TraceOp::Put: {
            RStream &s = ctl_.streams[operand];
            if (s.count == s.capacity) {
                // Stream::rawPut's blocking loop: notify readers,
                // park; re-entered (cursor unmoved) when re-run.
                wakeAll(s.readWaiters);
                s.writeWaiters.push_back(tid);
                t.state = RState::Blocked;
                return;
            }
            ++s.count;
            wakeAll(s.readWaiters);
            cur.advance();
            break;
          }
          case TraceOp::Get: {
            RStream &s = ctl_.streams[operand];
            if (s.count == 0) {
                if (s.openWriters == 0) {
                    // EOF: rawGet returns without byte or block.
                    cur.advance();
                    break;
                }
                wakeAll(s.writeWaiters);
                s.readWaiters.push_back(tid);
                t.state = RState::Blocked;
                return;
            }
            --s.count;
            wakeAll(s.writeWaiters);
            cur.advance();
            break;
          }
          case TraceOp::Close: {
            RStream &s = ctl_.streams[operand];
            crw_assert(s.openWriters > 0);
            if (--s.openWriters == 0)
                wakeAll(s.readWaiters);
            cur.advance();
            break;
          }
          case TraceOp::Exit:
            cur.advance();
            if (!cur.atEnd())
                fatalEventsAfterExit(tid);
            ctl_.leader.threadExit();
            ctl_.tracker.onExit(tid);
            t.state = RState::Finished;
            return;
        }
    }
    fatalEndedWithoutExit(tid);
}

void
ReplayDriver::runLegacy()
{
    while (!ctl_.core.idle()) {
        const ThreadId tid = ctl_.core.dispatchNext();
        ctl_.policy.resetQuantum();
        RThread &t = ctl_.threads[static_cast<std::size_t>(tid)];
        crw_assert(t.state == RState::Ready);
        t.state = RState::Running;
        if (ctl_.leader.current() != tid) {
            const ThreadId from = ctl_.leader.current();
            const Cycles begin = ctl_.leader.now();
            ctl_.leader.contextSwitch(tid);
            ctl_.tracker.onSwitch(from, tid, ctl_.leader.depthOf(tid),
                                  begin, ctl_.leader.now());
        }
        runThread(tid);
    }
}

void
ReplayDriver::run()
{
    if (ran_)
        crw_fatal << "ReplayDriver::run() called twice — a driver is "
                     "one run; rerunning would accumulate into the "
                     "finished run's counters ("
                  << context() << ")";
    ran_ = true;

    // The timeline observer and the post-event invariant walk only
    // exist on the oracle loop, so engines carrying either replay
    // there; CRW_REPLAY_FAST=0 pins every Auto run there too.
    if (path_ == ReplayPath::Legacy || ctl_.leader.observer() ||
        ctl_.leader.checkInvariants() || !productionEnabledByEnv()) {
        runLegacy();
    } else {
        if (!flat_) {
            ownedFlat_ =
                std::make_unique<FlatTrace>(FlatTrace::build(trace_));
            flat_ = ownedFlat_.get();
        }
        const bool ok = detail_replay::runLockstepLoop(
            trace_, *flat_, ctl_, nullptr, 1);
        // Divergence needs a follower lane to disagree with.
        crw_assert(ok);
    }

    for (std::size_t i = 0; i < ctl_.threads.size(); ++i) {
        if (ctl_.threads[i].state != RState::Finished)
            crw_fatal << "replay deadlock: thread " << i << " ("
                      << trace_.threads[i].name
                      << ") never finished — trace/config mismatch, "
                      << context();
    }
    ctl_.tracker.finish(ctl_.leader.now());
}

RunMetrics
ReplayDriver::metrics() const
{
    if (!ran_)
        crw_fatal << "ReplayDriver::metrics() called before run() — "
                     "the engine and tracker are unpopulated and "
                     "would yield an all-zero record ("
                  << context() << ")";
    return collectRunMetrics(ctl_.leader, ctl_.tracker,
                             ctl_.core.slackness(), ctl_.core.policy(),
                             static_cast<int>(ctl_.threads.size()),
                             trace_.misspelled);
}

} // namespace crw
