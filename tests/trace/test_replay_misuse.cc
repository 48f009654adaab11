/**
 * @file
 * ReplayDriver lifecycle misuse is fatal, not silent: metrics() before
 * run() would report an all-zero record and run() twice would
 * accumulate into finished counters; each must throw with the replay
 * coordinate in the message. And the oracle-only post-event invariant
 * walk is never dropped: the production loop refuses it, and a
 * default (Auto) run carrying it takes the oracle loop instead.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "trace/event_trace.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"
#include "trace/synth.h"

namespace crw {
namespace {

/** Minimal completable script: one thread, a window pulse, exit. */
EventTrace
tinyTrace()
{
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    rec.onThreadSpawn(0, "T1:solo", 0);
    rec.recordSave(0);
    rec.recordCharge(0, 10);
    rec.recordRestore(0);
    rec.recordExit(0);
    return rec.take(0, 0);
}

TEST(ReplayMisuse, MetricsBeforeRunIsFatal)
{
    const EventTrace trace = tinyTrace();
    ReplayDriver driver(trace, EngineConfig{}, SchedPolicy::Fifo);
    EXPECT_THROW(driver.metrics(), FatalError);
    driver.run(); // still usable after the failed read
    EXPECT_EQ(driver.metrics().saves, 1u);
}

TEST(ReplayMisuse, DoubleRunIsFatal)
{
    const EventTrace trace = tinyTrace();
    ReplayDriver driver(trace, EngineConfig{}, SchedPolicy::Fifo);
    driver.run();
    EXPECT_THROW(driver.run(), FatalError);
    // The completed run's results stay readable.
    EXPECT_EQ(driver.metrics().saves, 1u);
}

/**
 * The production view refuses invariant-checking engines: the
 * post-event invariant walk only exists on the oracle loop, so a
 * lockstep batch carrying one must fail loudly instead of silently
 * skipping the checks.
 */
TEST(ReplayMisuse, FastPathRefusesCheckInvariants)
{
    const EventTrace trace = tinyTrace();
    EngineConfig ec;
    ec.checkInvariants = true;
    EXPECT_THROW(BatchedReplayDriver(trace, {ec}, SchedPolicy::Fifo),
                 FatalError);
}

/**
 * A default (Auto) run with checkInvariants takes the oracle loop —
 * completing at all proves it, since the production view refuses such
 * engines — and is bit-identical to a headless Auto run, which takes
 * the production loop.
 */
TEST(ReplayMisuse, AutoWithInvariantsFallsBackToOracle)
{
    SynthSpec spec;
    spec.topology = SynthSpec::Topology::FanInOut;
    spec.threads = 3;
    spec.items = 60;
    spec.streamCapacity = 2;
    spec.lockRounds = 5;
    spec.seed = 11;
    const EventTrace trace = generateSynthTrace(spec);
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP,
          SchemeKind::Infinite}) {
        EngineConfig ec;
        ec.scheme = scheme;
        ec.numWindows = 6;
        const SchedPolicy policy = SchedPolicy::WorkingSet;
        ReplayDriver headless(trace, ec, policy);
        headless.run();

        EngineConfig checked = ec;
        checked.checkInvariants = true;
        ReplayDriver invariants(trace, checked, policy);
        invariants.run();
        EXPECT_TRUE(metricsBitIdentical(headless.metrics(),
                                        invariants.metrics()))
            << schemeName(scheme);
    }
}

} // namespace
} // namespace crw
