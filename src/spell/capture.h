/**
 * @file
 * Capture side of the capture-once / replay-many architecture
 * (DESIGN.md §8): run the live coroutine spell checker once, with a
 * TraceRecorder installed, and obtain an EventTrace valid for every
 * (scheme, window count, policy) replay point.
 */

#ifndef CRW_SPELL_CAPTURE_H_
#define CRW_SPELL_CAPTURE_H_

#include <string>

#include "spell/app.h"
#include "trace/event_trace.h"
#include "trace/run_metrics.h"

namespace crw {

/**
 * One full live (coroutine) spell-checker simulation; the pre-refactor
 * benches' measurement path, kept as the replay-equivalence oracle.
 *
 * @param recorder Optional: installed on the runtime so the run is
 *        captured; finalize it afterwards with TraceRecorder::take.
 */
RunMetrics runSpellLive(SchemeKind scheme, int windows,
                        SchedPolicy policy,
                        const SpellWorkload &workload,
                        const SpellConfig &config,
                        TraceRecorder *recorder = nullptr);

/**
 * Trace cache key for a workload: behavior label (or "custom") plus
 * the granularity/concurrency buffer sizes, e.g. "HC-fine-m1-n1".
 */
std::string spellTraceKey(const SpellConfig &config);

/**
 * Capture the workload's event trace with one live run. The engine
 * configuration of the capture run is irrelevant to the result (the
 * recorded per-thread scripts are configuration-independent; the
 * round-trip test asserts this), so it runs on the Infinite scheme,
 * the cheapest one to model.
 */
EventTrace captureSpellTrace(const SpellWorkload &workload,
                             const SpellConfig &config);

} // namespace crw

#endif // CRW_SPELL_CAPTURE_H_
