/**
 * @file
 * Reproduces Figure 14: execution time in the low-concurrency case.
 *
 * Expected shape (paper §6.4): the variation in total window activity
 * is greater than in the high-concurrency case — more windows are
 * needed before the sharing curves saturate (the paper reports 20+
 * for SP at coarse granularity) — and the SNP scheme shows anomalous
 * behavior at fine granularity caused by the simple window
 * allocation.
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

/** First sweep index where the series is within 3% of its minimum. */
std::size_t
saturationIndex(const SchemeSweep &sweep, std::size_t scheme_idx)
{
    double best = mcycles(sweep.at(scheme_idx, 0));
    for (std::size_t wi = 1; wi < sweep.windows.size(); ++wi)
        best = std::min(best, mcycles(sweep.at(scheme_idx, wi)));
    for (std::size_t wi = 0; wi < sweep.windows.size(); ++wi)
        if (mcycles(sweep.at(scheme_idx, wi)) <= best * 1.03)
            return wi;
    return sweep.windows.size() - 1;
}

} // namespace

void
planFig14(ExperimentPlan &plan)
{
    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse})
        plan.addSweep(BehaviorId::spell(ConcurrencyLevel::Low, gran),
                      SchedPolicy::Fifo, evaluatedSchemes(),
                      defaultWindowSweep());
    // The cross-figure check compares against the HC coarse sweep
    // (shared with fig11/12/13 when run together).
    plan.addSweep(BehaviorId::spell(ConcurrencyLevel::High,
                                    GranularityLevel::Coarse),
                  SchedPolicy::Fifo, evaluatedSchemes(),
                  defaultWindowSweep());
}

int
runFig14(const FlagSet &)
{
    SelfCheck check;

    int sat_lc_coarse = 0;
    int sat_hc_coarse = 0;
    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse}) {
        const SchemeSweep sweep =
            sweepSchemes(BehaviorId::spell(ConcurrencyLevel::Low, gran),
                         SchedPolicy::Fifo, defaultWindowSweep());
        const std::string gname = granularityName(gran);
        emitSweepPanel(
            "Figure 14 (" + gname +
                " granularity): execution time, low concurrency",
            "execution time [Mcycles]", sweep, mcycles,
            "fig14_" + gname + ".csv");

        const std::size_t last = sweep.windows.size() - 1;
        std::cout << "\nShape checks (" << gname << "):\n";
        check(mcycles(sweep.at(2, last)) < mcycles(sweep.at(0, last)),
              "SP beats NS with sufficient windows");
        check(mcycles(sweep.at(0, 0)) <= mcycles(sweep.at(2, 0)),
              "NS at least matches SP at 4 windows");
        if (gran == GranularityLevel::Coarse) {
            sat_lc_coarse =
                sweep.windows[saturationIndex(sweep, 2)];
            // Compare against the high-concurrency coarse case.
            const SchemeSweep hc =
                sweepSchemes(BehaviorId::spell(ConcurrencyLevel::High,
                                               GranularityLevel::Coarse),
                             SchedPolicy::Fifo, defaultWindowSweep());
            sat_hc_coarse = hc.windows[saturationIndex(hc, 2)];
        }
    }

    std::cout << "\nCross-figure check (vs Figure 11):\n";
    check(sat_lc_coarse >= sat_hc_coarse,
          "SP saturates later (needs >= as many windows) at low "
          "concurrency, coarse grain: LC=" +
              std::to_string(sat_lc_coarse) +
              " vs HC=" + std::to_string(sat_hc_coarse));
    check(sat_lc_coarse >= 16,
          "paper: '20 or more windows are required for the SP scheme "
          "at the coarse granularity' — measured saturation at " +
              std::to_string(sat_lc_coarse));
    return check.exitCode();
}

} // namespace bench
} // namespace crw
