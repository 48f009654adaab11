/**
 * @file
 * Beyond-the-paper exhibit: generated behaviors × schemes × windows ×
 * the full scheduling-policy family (DESIGN.md §15).
 *
 * The paper evaluates the window schemes on one application. This
 * exhibit replays the synthetic behavior menu (trace/synth.h) — a
 * pipeline, a scatter/gather, a token ring and a lock-contention-heavy
 * variant, all with rotating per-thread priorities — under every
 * SchedPolicy, through the same plan/cache/batch machinery the paper
 * figures use. One table per behavior: execution time as policy ×
 * scheme × windows, with the per-behavior CSV capturing the full
 * matrix.
 */

#include <iostream>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "common/table.h"

namespace crw {
namespace bench {
namespace {

/** Coarser than defaultWindowSweep(): the policy axis multiplies the
 *  point count by |allSchedPolicies()|, so the window axis samples
 *  the paper's range instead of covering it. */
const std::vector<int> &
synthWindowSweep()
{
    static const std::vector<int> kSweep = {4, 8, 16, 32};
    return kSweep;
}

double
mcycles(const RunMetrics &m)
{
    return static_cast<double>(m.totalCycles) / 1e6;
}

} // namespace

void
planSynth(ExperimentPlan &plan)
{
    for (const SynthSpec &spec : synthBehaviorMenu())
        for (const SchedPolicy policy : allSchedPolicies())
            plan.addSweep(BehaviorId::fromSynth(spec), policy,
                          evaluatedSchemes(), synthWindowSweep());
}

int
runSynth(const FlagSet &)
{
    SelfCheck check;

    for (const SynthSpec &spec : synthBehaviorMenu()) {
        const BehaviorId behavior = BehaviorId::fromSynth(spec);
        const std::string key = behavior.key();
        banner("Synthetic behavior " + key + ": execution time "
               "[Mcycles] by policy, scheme and window count");

        std::vector<std::string> headers{"policy", "windows"};
        for (const SchemeKind s : evaluatedSchemes())
            headers.emplace_back(schemeName(s));
        Table table(std::move(headers));

        for (const SchedPolicy policy : allSchedPolicies()) {
            const SchemeSweep sweep =
                sweepSchemes(behavior, policy, synthWindowSweep());
            for (std::size_t wi = 0; wi < sweep.windows.size();
                 ++wi) {
                std::vector<std::string> row{
                    policyName(policy),
                    std::to_string(sweep.windows[wi])};
                for (std::size_t si = 0;
                     si < evaluatedSchemes().size(); ++si)
                    row.push_back(
                        formatDouble(mcycles(sweep.at(si, wi)), 4));
                table.addRow(std::move(row));
            }
        }
        table.printText(std::cout);
        const std::string path = outputPath(key + ".csv");
        table.writeCsvFile(path);
        std::cout << "\n(series written to " << path << ")\n";

        // Shape checks. SP index 2 in evaluatedSchemes(); windows
        // {4, 8, 16, 32} → indices 0..3.
        const SchemeSweep fifo = sweepSchemes(
            behavior, SchedPolicy::Fifo, synthWindowSweep());
        std::cout << "\nShape checks (" << key << "):\n";
        check(mcycles(fifo.at(2, 3)) < mcycles(fifo.at(2, 0)),
              "SP improves from 4 to 32 windows under FIFO: " +
                  formatDouble(mcycles(fifo.at(2, 0)), 1) + " -> " +
                  formatDouble(mcycles(fifo.at(2, 3)), 1) +
                  " Mcycles");
        for (const SchedPolicy policy : allSchedPolicies()) {
            const SchemeSweep sweep =
                sweepSchemes(behavior, policy, synthWindowSweep());
            bool positive = true;
            for (std::size_t si = 0; si < evaluatedSchemes().size();
                 ++si)
                for (std::size_t wi = 0;
                     wi < sweep.windows.size(); ++wi)
                    positive =
                        positive && sweep.at(si, wi).totalCycles > 0;
            check(positive, std::string(policyName(policy)) +
                                " completes every point");
        }
    }
    return check.exitCode();
}

} // namespace bench
} // namespace crw
