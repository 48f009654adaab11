/**
 * @file
 * The crw benchmark driver (`crw-perf`): one sweep or one ISA pass per
 * process, timed from outside the program through the layers' public
 * functions. perfbench/run.py runs it in a closed loop and turns its
 * per-pass records into the benchmark's metrics.
 *
 * The bench executor keeps its traces, flat images and results in
 * process-wide memos with no reset, so a sweep that must start from a
 * given on-disk state has to start in a fresh process: that is why
 * the loop lives in run.py and each pass is one `crw-perf` process.
 */

#ifndef CRW_PERFBENCH_DRIVER_H_
#define CRW_PERFBENCH_DRIVER_H_

#include <cstdint>
#include <string>

namespace crw {
namespace perf {

/** Options shared by both pass kinds (see main.cc for the flags). */
struct PassOptions
{
    std::uint64_t seed = 1;
    bool traced = false;      ///< record layer spans and layer timings
    std::string resultPath;   ///< where the JSON record goes
    std::string spansPath;    ///< Chrome trace of the spans (traced)
    std::string runId;        ///< shared by every span of one run
    int pid = 0;              ///< separates passes in a merged trace
};

/** How a sweep pass treats the on-disk stores. */
enum class SweepMode {
    Cold,   ///< stores on, bench_out empty: capture, predecode, put
    Serial, ///< --no-cache at one worker: replay every point
    Warm,   ///< stores on and already filled: zero replays
};

struct SweepOptions : PassOptions
{
    SweepMode mode = SweepMode::Cold;
    int jobs = 4;
    bool oracle = false;      ///< check seeded points vs the legacy loop
    bool prepareOnly = false; ///< acquire the plan's traces, nothing else
    std::string metricsOut;   ///< pass --metrics-out to the harness
};

/** One sweep of the `crw-bench all` plan plus the seeded behaviors. */
int runSweepPass(const SweepOptions &options);

/** One pass of the ISA workload (Table 2 cases + Machine runs). */
int runIsaPass(const PassOptions &options);

/** Host fingerprint as one JSON object (no timing). */
std::string fingerprintJson();

/** True when this binary was built with a sanitizer. */
bool sanitizedBuild();

} // namespace perf
} // namespace crw

#endif // CRW_PERFBENCH_DRIVER_H_
