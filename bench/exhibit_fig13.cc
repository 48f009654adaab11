/**
 * @file
 * Reproduces Figure 13: probability of window overflow/underflow
 * traps in the high-concurrency case — the number of window traps
 * divided by the number of executed save and restore instructions.
 *
 * Expected shape (paper §6.3): with sufficient windows the sharing
 * schemes' trap probability collapses toward zero (fast procedure
 * calls are preserved), while NS keeps a floor of underflow traps
 * caused by its own switch-time flushes.
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
trapProb(const RunMetrics &m)
{
    return m.trapProbability;
}

} // namespace

int
runFig13(const FlagSet &)
{
    SelfCheck check;

    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse}) {
        const SchemeSweep sweep =
            sweepSchemes(BehaviorId::spell(ConcurrencyLevel::High, gran),
                         SchedPolicy::Fifo, defaultWindowSweep());
        const std::string gname = granularityName(gran);
        emitSweepPanel("Figure 13 (" + gname +
                           " granularity): probability of window "
                           "traps, high concurrency",
                       "(ovf+unf traps)/(saves+restores)", sweep,
                       trapProb, "fig13_" + gname + ".csv");

        const std::size_t last = sweep.windows.size() - 1;
        std::cout << "\nShape checks (" << gname << "):\n";
        check(trapProb(sweep.at(2, last)) < 0.002,
              "SP trap probability ~0 with sufficient windows");
        check(trapProb(sweep.at(1, last)) < 0.002,
              "SNP trap probability ~0 with sufficient windows");
        check(trapProb(sweep.at(0, last)) >
                  20.0 * trapProb(sweep.at(2, last)) &&
              trapProb(sweep.at(0, last)) > 0.01,
              "NS keeps an underflow floor from its switch flushes "
              "(" + formatDouble(trapProb(sweep.at(0, last)), 4) +
                  " vs SP " +
                  formatDouble(trapProb(sweep.at(2, last)), 4) + ")");
        check(trapProb(sweep.at(2, 0)) > trapProb(sweep.at(2, last)),
              "SP trap probability falls with more windows");
        // NS is insensitive to window count once activity fits.
        check(trapProb(sweep.at(0, 2)) <
                  trapProb(sweep.at(0, 0)) + 0.05,
              "NS roughly flat in the window count");
    }
    return check.exitCode();
}

} // namespace bench
} // namespace crw
