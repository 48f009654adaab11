/**
 * @file
 * Reproduces Figure 15: execution time in the high-concurrency case
 * with the working-set concept incorporated into the scheduler
 * (paper §4.6 / §6.5): a thread awoken while its windows are still
 * resident jumps to the front of the ready queue.
 *
 * Expected shape: the sharing schemes' performance at a small number
 * of windows improves dramatically — they "work well with even seven
 * or eight windows" — with no significant loss at a large number of
 * windows; at four or five windows even scheduling cannot push the
 * total window activity low enough.
 */

#include <iostream>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "common/table.h"

namespace crw {
namespace bench {
namespace {

double
mcycles(const RunMetrics &m)
{
    return static_cast<double>(m.totalCycles) / 1e6;
}

} // namespace

void
planFig15(ExperimentPlan &plan)
{
    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse}) {
        const BehaviorId hc = BehaviorId::spell(ConcurrencyLevel::High,
                                                gran);
        plan.addSweep(hc, SchedPolicy::WorkingSet, evaluatedSchemes(),
                      defaultWindowSweep());
        // FIFO baseline, shared with fig11/12/13 when run together.
        plan.addSweep(hc, SchedPolicy::Fifo, evaluatedSchemes(),
                      defaultWindowSweep());
    }
}

int
runFig15(const FlagSet &)
{
    SelfCheck check;

    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse}) {
        const std::string gname = granularityName(gran);
        const BehaviorId hc = BehaviorId::spell(ConcurrencyLevel::High,
                                                gran);
        const SchemeSweep ws = sweepSchemes(hc, SchedPolicy::WorkingSet,
                                            defaultWindowSweep());
        emitSweepPanel("Figure 15 (" + gname +
                           " granularity): execution time, high "
                           "concurrency, working-set scheduling",
                       "execution time [Mcycles]", ws,
                       mcycles, "fig15_" + gname + ".csv");

        const SchemeSweep fifo =
            sweepSchemes(hc, SchedPolicy::Fifo, defaultWindowSweep());

        // Index of 8 windows in the default sweep.
        std::size_t w8 = 0;
        for (std::size_t i = 0; i < ws.windows.size(); ++i)
            if (ws.windows[i] == 8)
                w8 = i;
        const std::size_t last = ws.windows.size() - 1;

        std::cout << "\nShape checks (" << gname << "):\n";
        check(mcycles(ws.at(2, w8)) < mcycles(fifo.at(2, w8)),
              "working set improves SP at 8 windows: " +
                  formatDouble(mcycles(ws.at(2, w8)), 1) + " vs " +
                  formatDouble(mcycles(fifo.at(2, w8)), 1) +
                  " Mcycles");
        check(mcycles(ws.at(1, w8)) < mcycles(fifo.at(1, w8)),
              "working set improves SNP at 8 windows");
        check(mcycles(ws.at(2, w8)) < mcycles(ws.at(0, w8)) * 1.05,
              "with the working set, SP is competitive with NS at 8 "
              "windows");
        check(mcycles(ws.at(2, last)) <
                  mcycles(fifo.at(2, last)) * 1.05,
              "no significant loss at a large number of windows");
    }
    return check.exitCode();
}

} // namespace bench
} // namespace crw
