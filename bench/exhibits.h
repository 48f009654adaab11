/**
 * @file
 * Per-exhibit plan and report functions, one TU each
 * (bench/exhibit_<name>.cc), wired into the table in registry.cc.
 * Plans declare the replay points a report reads; reports must only
 * read points their plan declared (an undeclared read still works —
 * the executor falls back to on-demand execution — but forfeits the
 * sharing and warm-cache guarantees).
 */

#ifndef CRW_BENCH_EXHIBITS_H_
#define CRW_BENCH_EXHIBITS_H_

namespace crw {

class FlagSet;

namespace bench {

class ExperimentPlan;

void planTable1(ExperimentPlan &plan);
int runTable1(const FlagSet &flags);

int runTable2(const FlagSet &flags);

/**
 * The plan Figs. 11-13 share: the high-concurrency behavior at every
 * granularity, the evaluated schemes, the default window sweep.
 */
void planHighConcurrency(ExperimentPlan &plan);
int runFig11(const FlagSet &flags);
int runFig12(const FlagSet &flags);
int runFig13(const FlagSet &flags);

void planFig14(ExperimentPlan &plan);
int runFig14(const FlagSet &flags);

void planFig15(ExperimentPlan &plan);
int runFig15(const FlagSet &flags);

void planAblation(ExperimentPlan &plan);
int runAblation(const FlagSet &flags);

int runMicrotrace(const FlagSet &flags);

void planSynth(ExperimentPlan &plan);
int runSynth(const FlagSet &flags);

void addSparcInterpFlags(FlagSet &flags);
int runSparcInterp(const FlagSet &flags);

void addReplayThroughputFlags(FlagSet &flags);
int runReplayThroughput(const FlagSet &flags);

void addCacheFlags(FlagSet &flags);
int runCache(const FlagSet &flags);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_EXHIBITS_H_
