/**
 * @file
 * Reproduces Table 1 of the paper: per-thread context-switch counts
 * for the six program behaviors ({high, low} concurrency x {fine,
 * medium, coarse} granularity) plus the dynamic count of save
 * instructions — all independent of the window-management scheme and
 * the number of windows under FIFO scheduling.
 *
 * The paper's counts came from a 40,500-byte LaTeX draft and real
 * UNIX dictionaries; ours come from the synthetic workload (see
 * DESIGN.md substitutions), so absolute values differ while structure
 * (which threads dominate, how counts scale with M and N) should hold.
 */

#include <iostream>
#include <vector>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "common/table.h"

namespace crw {
namespace bench {
namespace {

/** Paper Table 1: context switches under FIFO scheduling. */
constexpr std::uint64_t kPaperSwitches[7][6] = {
    // HC-fine, HC-med, HC-coarse, LC-fine, LC-med, LC-coarse
    {60566, 12680, 2653, 29838, 8925, 2001},  // T1
    {102447, 23497, 5400, 49952, 9983, 2049}, // T2
    {80578, 21327, 5400, 29887, 8791, 2049},  // T3
    {40501, 11548, 2653, 4817, 4612, 1974},   // T4
    {1005, 314, 146, 197, 196, 135},          // T5
    {50001, 12501, 3126, 49, 49, 49},         // T6
    {50001, 12501, 3126, 49, 49, 49},         // T7
};

constexpr std::uint64_t kPaperSaves[7] = {
    113015, 110740, 75526, 10127, 262, 12502, 12502,
};

struct Behavior
{
    ConcurrencyLevel conc;
    GranularityLevel gran;
};

constexpr Behavior kBehaviors[6] = {
    {ConcurrencyLevel::High, GranularityLevel::Fine},
    {ConcurrencyLevel::High, GranularityLevel::Medium},
    {ConcurrencyLevel::High, GranularityLevel::Coarse},
    {ConcurrencyLevel::Low, GranularityLevel::Fine},
    {ConcurrencyLevel::Low, GranularityLevel::Medium},
    {ConcurrencyLevel::Low, GranularityLevel::Coarse},
};

// The counts are scheme-independent; measure at SP with ample
// windows, one point per behavior.
PlanPoint
behaviorPoint(const Behavior &b)
{
    return makePlanPoint(BehaviorId::spell(b.conc, b.gran),
                         SchemeKind::SP, 32, SchedPolicy::Fifo);
}

} // namespace

void
planTable1(ExperimentPlan &plan)
{
    for (const Behavior &b : kBehaviors)
        plan.add(behaviorPoint(b));
}

int
runTable1(const FlagSet &)
{
    banner("Table 1: program behaviors of the multi-threaded spell "
           "checker");

    std::vector<RunMetrics> runs;
    for (const Behavior &b : kBehaviors)
        runs.push_back(pointResult(behaviorPoint(b)));

    // --- context switches ---
    Table switches({"thread", "HC-fine", "HC-med", "HC-coarse",
                    "LC-fine", "LC-med", "LC-coarse"});
    std::uint64_t totals[6] = {};
    for (int t = 0; t < SpellApp::kNumThreads; ++t) {
        std::vector<std::string> row;
        row.push_back(SpellApp::threadLabel(t + 1));
        for (int b = 0; b < 6; ++b) {
            const auto v = runs[static_cast<std::size_t>(b)]
                               .perThread[static_cast<std::size_t>(t)]
                               .switchesIn;
            totals[b] += v;
            row.push_back(std::to_string(v) + " (" +
                          std::to_string(kPaperSwitches[t][b]) + ")");
        }
        switches.addRow(std::move(row));
    }
    {
        std::vector<std::string> row{"Total"};
        std::uint64_t paper_total[6] = {};
        for (int b = 0; b < 6; ++b) {
            for (int t = 0; t < 7; ++t)
                paper_total[b] += kPaperSwitches[t][b];
            row.push_back(std::to_string(totals[b]) + " (" +
                          std::to_string(paper_total[b]) + ")");
        }
        switches.addRow(std::move(row));
    }
    std::cout << "\nNumber of context switches, FIFO scheduling — "
                 "measured (paper):\n\n";
    switches.printText(std::cout);
    switches.writeCsvFile(outputPath("table1_switches.csv"));

    // --- dynamic save counts (independent of buffers/scheduling) ---
    Table saves({"thread", "saves", "paper"});
    std::uint64_t total_saves = 0;
    std::uint64_t paper_saves = 0;
    for (int t = 0; t < SpellApp::kNumThreads; ++t) {
        const auto v =
            runs[0].perThread[static_cast<std::size_t>(t)].saves;
        total_saves += v;
        paper_saves += kPaperSaves[t];
        saves.addRowOf(std::string(SpellApp::threadLabel(t + 1)), v,
                       kPaperSaves[t]);
    }
    saves.addRowOf(std::string("Total"), total_saves, paper_saves);
    std::cout << "\nDynamic count of save instructions — measured vs "
                 "paper:\n\n";
    saves.printText(std::cout);
    saves.writeCsvFile(outputPath("table1_saves.csv"));

    // --- structural checks the paper asserts ---
    std::cout << "\nStructural checks:\n";
    SelfCheck check;
    // Save counts equal across all behaviors (same function calls).
    bool saves_equal = true;
    for (int b = 1; b < 6; ++b)
        for (int t = 0; t < 7; ++t)
            saves_equal &=
                runs[static_cast<std::size_t>(b)]
                    .perThread[static_cast<std::size_t>(t)]
                    .saves ==
                runs[0].perThread[static_cast<std::size_t>(t)].saves;
    check(saves_equal,
          "dynamic save counts identical across all six behaviors");
    check(totals[0] > totals[1] && totals[1] > totals[2],
          "HC: finer granularity -> more context switches");
    check(totals[3] > totals[4] && totals[4] > totals[5],
          "LC: finer granularity -> more context switches");
    for (int b = 0; b < 3; ++b)
        check(totals[b] > totals[b + 3],
              std::string("high concurrency outswitches low at ") +
                  granularityName(kBehaviors[b].gran));
    // Dictionary threads: ~dictBytes/M switches (paper: 50001 @ M=1).
    check(runs[0].perThread[5].switchesIn > 40000,
          "T6 switches per byte at M=1");
    check(runs[3].perThread[5].switchesIn < 100,
          "T6 nearly switchless at M=1024");
    return check.exitCode();
}

} // namespace bench
} // namespace crw
