/**
 * @file
 * Ablation studies for the design choices the paper leaves open:
 *
 *  1. PRW reclamation (DESIGN.md): what happens to a fully-spilled
 *     thread's private reserved window — Lazy / Eager / EagerFolded.
 *  2. Window allocation (paper §4.2): the evaluated "simple" scheme
 *     (allocate directly above the suspended thread, evicting as
 *     needed) versus searching for a free window first.
 *  3. The infinite-window oracle as the lower bound, quantifying how
 *     much of the remaining time is window management at all.
 */

#include <iostream>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "common/table.h"

namespace crw {
namespace bench {
namespace {

/** The table's variant columns, in print order. */
struct Variant
{
    SchemeKind scheme;
    PrwReclaim reclaim;
    AllocPolicy alloc;
};

constexpr Variant kVariants[] = {
    {SchemeKind::Infinite, PrwReclaim::Eager, AllocPolicy::Simple},
    {SchemeKind::SNP, PrwReclaim::Eager, AllocPolicy::Simple},
    {SchemeKind::SNP, PrwReclaim::Eager, AllocPolicy::FreeSearch},
    {SchemeKind::SP, PrwReclaim::Lazy, AllocPolicy::Simple},
    {SchemeKind::SP, PrwReclaim::Eager, AllocPolicy::Simple},
    {SchemeKind::SP, PrwReclaim::EagerFolded, AllocPolicy::Simple},
    {SchemeKind::SP, PrwReclaim::Eager, AllocPolicy::FreeSearch},
};

constexpr int kWindows[] = {6, 8, 10, 12, 16, 24, 32};

PlanPoint
variantPoint(SchemeKind scheme, int windows, PrwReclaim reclaim,
             AllocPolicy alloc)
{
    PlanPoint p = makePlanPoint(
        BehaviorId::spell(ConcurrencyLevel::High, GranularityLevel::Fine),
        scheme, windows, SchedPolicy::Fifo);
    p.engine.prwReclaim = reclaim;
    p.engine.allocPolicy = alloc;
    return p;
}

double
runVariant(SchemeKind scheme, int windows, PrwReclaim reclaim,
           AllocPolicy alloc)
{
    return static_cast<double>(
               pointResult(
                   variantPoint(scheme, windows, reclaim, alloc))
                   .totalCycles) /
           1e6;
}

} // namespace

void
planAblation(ExperimentPlan &plan)
{
    for (const int w : kWindows)
        for (const Variant &v : kVariants)
            plan.add(variantPoint(v.scheme, w, v.reclaim, v.alloc));
}

int
runAblation(const FlagSet &)
{
    banner("Ablation: PRW reclamation and §4.2 allocation policy "
           "(spell checker, high concurrency, fine granularity)");

    Table table({"windows", "INF", "SNP", "SNP+search", "SP(lazy)",
                 "SP(eager)", "SP(folded)", "SP+search"});
    for (const int w : kWindows) {
        table.addRowOf(
            w,
            formatDouble(runVariant(SchemeKind::Infinite, w,
                                    PrwReclaim::Eager,
                                    AllocPolicy::Simple),
                         1),
            formatDouble(runVariant(SchemeKind::SNP, w,
                                    PrwReclaim::Eager,
                                    AllocPolicy::Simple),
                         1),
            formatDouble(runVariant(SchemeKind::SNP, w,
                                    PrwReclaim::Eager,
                                    AllocPolicy::FreeSearch),
                         1),
            formatDouble(runVariant(SchemeKind::SP, w,
                                    PrwReclaim::Lazy,
                                    AllocPolicy::Simple),
                         1),
            formatDouble(runVariant(SchemeKind::SP, w,
                                    PrwReclaim::Eager,
                                    AllocPolicy::Simple),
                         1),
            formatDouble(runVariant(SchemeKind::SP, w,
                                    PrwReclaim::EagerFolded,
                                    AllocPolicy::Simple),
                         1),
            formatDouble(runVariant(SchemeKind::SP, w,
                                    PrwReclaim::Eager,
                                    AllocPolicy::FreeSearch),
                         1));
    }
    std::cout << "\nExecution time [Mcycles]:\n\n";
    table.printText(std::cout);
    table.writeCsvFile(outputPath("ablation.csv"));

    std::cout << "\nReading: the INF column is pure compute+switch "
                 "floor (no window cost). PRW reclamation matters in "
                 "the mid-range (8-12 windows) where SP is space-"
                 "constrained; allocation search shaves switch-time "
                 "spills; with ample windows every variant "
                 "converges.\n";

    bool ok = true;
    auto check = [&ok](bool cond, const std::string &what) {
        std::cout << "  [" << (cond ? "ok" : "FAIL") << "] " << what
                  << '\n';
        ok = ok && cond;
    };
    // The oracle lower-bounds everything.
    const double inf32 = runVariant(SchemeKind::Infinite, 32,
                                    PrwReclaim::Eager,
                                    AllocPolicy::Simple);
    const double sp32 = runVariant(SchemeKind::SP, 32,
                                   PrwReclaim::Eager,
                                   AllocPolicy::Simple);
    check(inf32 < sp32, "infinite-window oracle lower-bounds SP");
    const double lazy10 = runVariant(SchemeKind::SP, 10,
                                     PrwReclaim::Lazy,
                                     AllocPolicy::Simple);
    const double eager10 = runVariant(SchemeKind::SP, 10,
                                      PrwReclaim::Eager,
                                      AllocPolicy::Simple);
    check(eager10 <= lazy10 * 1.02,
          "eager PRW reclamation is not worse in the tight range");
    return ok ? 0 : 1;
}

} // namespace bench
} // namespace crw
