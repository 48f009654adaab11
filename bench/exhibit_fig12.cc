/**
 * @file
 * Reproduces Figure 12: average time of a context switch in the
 * high-concurrency case.
 *
 * Expected shape (paper §6.3): with sufficient windows the switch
 * cost of SP and SNP approaches their Table 2 best case — most
 * switches move no windows at all, especially at fine granularity —
 * while NS stays expensive (it always flushes).
 */

#include <iostream>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "common/table.h"
#include "win/cost_model.h"

namespace crw {
namespace bench {
namespace {

double
meanSwitch(const RunMetrics &m)
{
    return m.meanSwitchCost;
}

} // namespace

void
planFig12(ExperimentPlan &plan)
{
    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse})
        plan.addSweep(BehaviorId::spell(ConcurrencyLevel::High, gran),
                      SchedPolicy::Fifo, evaluatedSchemes(),
                      defaultWindowSweep());
}

int
runFig12(const FlagSet &)
{
    bool ok = true;
    auto check = [&ok](bool cond, const std::string &what) {
        std::cout << "  [" << (cond ? "ok" : "FAIL") << "] " << what
                  << '\n';
        ok = ok && cond;
    };

    const CostModel cost = CostModel::paperTable2();
    const double sp_best =
        static_cast<double>(cost.switchCost(SchemeKind::SP, 0, 0));
    const double snp_best =
        static_cast<double>(cost.switchCost(SchemeKind::SNP, 0, 0));

    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse}) {
        const SchemeSweep sweep =
            sweepSchemes(BehaviorId::spell(ConcurrencyLevel::High, gran),
                         SchedPolicy::Fifo, defaultWindowSweep());
        const std::string gname = granularityName(gran);
        emitSweepPanel("Figure 12 (" + gname +
                           " granularity): average context-switch "
                           "time, high concurrency",
                       "cycles per context switch", sweep, meanSwitch,
                       "fig12_" + gname + ".csv");

        const std::size_t last = sweep.windows.size() - 1;
        std::cout << "\nShape checks (" << gname << "):\n";
        check(meanSwitch(sweep.at(2, last)) < sp_best * 1.10,
              "SP mean switch cost within 10% of the Table 2 best "
              "case (" + formatDouble(sp_best, 0) + " cycles) at 32 "
              "windows: " +
                  formatDouble(meanSwitch(sweep.at(2, last)), 1));
        check(meanSwitch(sweep.at(1, last)) < snp_best * 1.10,
              "SNP mean switch cost within 10% of its best case at 32 "
              "windows");
        // NS flushes every active window, so its mean switch cost
        // rises with granularity (more windows live per quantum);
        // even at fine grain it stays well above SP's best case.
        check(meanSwitch(sweep.at(0, last)) >
                  1.5 * meanSwitch(sweep.at(2, last)),
              "NS switches cost over 1.5x SP's with sufficient "
              "windows (" +
                  formatDouble(meanSwitch(sweep.at(0, last)), 0) +
                  " vs " +
                  formatDouble(meanSwitch(sweep.at(2, last)), 0) +
                  " cycles)");
        check(meanSwitch(sweep.at(2, 0)) > meanSwitch(sweep.at(2, last)),
              "SP switch cost falls as windows are added");
    }
    return ok ? 0 : 1;
}

} // namespace bench
} // namespace crw
