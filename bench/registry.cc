#include "bench/registry.h"

#include <algorithm>
#include <cstddef>
#include <iostream>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "common/flags.h"

namespace crw {
namespace bench {

namespace {

/** The registry name "all" expands to everything but the host-perf
 *  exhibits (they measure host throughput, not a paper result). */
bool
inAll(const Exhibit &ex)
{
    const std::string name(ex.name);
    return name != "sparc_interp" && name != "replay-throughput" &&
           name != "cache";
}

/** The `crw-bench list` body: the registry with descriptions. */
void
printExhibitList(std::ostream &os)
{
    std::size_t width = 0;
    for (const Exhibit &ex : exhibitRegistry())
        width = std::max(width, std::string(ex.name).size());
    for (const Exhibit &ex : exhibitRegistry())
        os << "  " << ex.name
           << std::string(width + 2 - std::string(ex.name).size(), ' ')
           << ex.title << (inAll(ex) ? "" : "  [not part of 'all']")
           << '\n';
}

void
printUsage(std::ostream &os)
{
    os << "usage: crw-bench [flags] <exhibit>... | all | list\n"
          "\nexhibits:\n";
    printExhibitList(os);
    os << "\nSelected exhibits share one experiment plan: the union "
          "of their replay\npoints runs exactly once, then each "
          "report prints in command-line order.\nSee --help for the "
          "flag list.\n";
}

/** Plan → execute → report for an already-parsed selection. */
int
runSelected(const std::vector<const Exhibit *> &selected,
            const FlagSet &flags)
{
    setResultCacheEnabled(!flags.getBool("no-cache") &&
                          !traceRequested());
    // The flat-trace store stays on for --trace-out (attaching a
    // predecoded arena does not skew a timeline the way a cached
    // result would), but --no-cache bypasses it like everything else.
    setFlatCacheEnabled(!flags.getBool("no-cache"));

    ExperimentPlan plan;
    for (const Exhibit *ex : selected)
        if (ex->plan)
            ex->plan(plan);
    if (obsEnabled())
        manifestSet("plan_digest", plan.digest());
    executePlan(plan);

    int rc = 0;
    for (const Exhibit *ex : selected)
        rc = std::max(rc, ex->report(flags));
    benchFinish();
    return rc;
}

} // namespace

const std::vector<Exhibit> &
exhibitRegistry()
{
    static const std::vector<Exhibit> kExhibits = {
        {"table1", "per-thread switch/save counts, 6 behaviors",
         nullptr, planTable1, runTable1},
        {"table2", "context-switch cycles (instruction-level)",
         nullptr, nullptr, runTable2},
        {"fig11", "execution time vs windows, high concurrency",
         nullptr, planHighConcurrency, runFig11},
        {"fig12", "mean context-switch time, high concurrency",
         nullptr, planHighConcurrency, runFig12},
        {"fig13", "window-trap probability, high concurrency",
         nullptr, planHighConcurrency, runFig13},
        {"fig14", "execution time vs windows, low concurrency",
         nullptr, planFig14, runFig14},
        {"fig15", "execution time with working-set scheduling",
         nullptr, planFig15, runFig15},
        {"ablation", "PRW reclamation and allocation policy",
         nullptr, planAblation, runAblation},
        {"microtrace", "synthetic call-depth random walks", nullptr,
         nullptr, runMicrotrace},
        {"synth", "generated behaviors x full policy family", nullptr,
         planSynth, runSynth},
        {"sparc_interp", "SPARC interpreter host throughput",
         addSparcInterpFlags, nullptr, runSparcInterp},
        {"replay-throughput", "replay engine host throughput",
         addReplayThroughputFlags, nullptr, runReplayThroughput},
        {"cache", "bench_out store inventory and GC", addCacheFlags,
         nullptr, runCache},
    };
    return kExhibits;
}

const Exhibit *
findExhibit(const std::string &name)
{
    for (const Exhibit &ex : exhibitRegistry())
        if (name == ex.name)
            return &ex;
    return nullptr;
}

int
crwBenchMain(int argc, char **argv)
{
    // All exhibits' flags are defined up front: the selection comes
    // from the positional arguments, which parsing itself collects.
    FlagSet flags;
    for (const Exhibit &ex : exhibitRegistry())
        if (ex.addFlags)
            ex.addFlags(flags);
    flags.defineBool("no-cache", false,
                     "bypass the on-disk stores (point results and "
                     "flat traces); replay every point");
    if (!benchInit(argc, argv, flags))
        return 0;

    const std::vector<std::string> &names = flags.positional();
    if (names.empty()) {
        printUsage(std::cerr);
        return 2;
    }
    std::vector<const Exhibit *> selected;
    const auto select = [&selected](const Exhibit *ex) {
        if (std::find(selected.begin(), selected.end(), ex) ==
            selected.end())
            selected.push_back(ex);
    };
    for (const std::string &name : names) {
        if (name == "list") {
            // A listing request wins over any exhibit selection: no
            // plan runs, nothing is replayed.
            std::cout << "exhibits:\n";
            printExhibitList(std::cout);
            return 0;
        }
        if (name == "all") {
            for (const Exhibit &ex : exhibitRegistry())
                if (inAll(ex))
                    select(&ex);
            continue;
        }
        const Exhibit *ex = findExhibit(name);
        if (!ex) {
            std::cerr << "error: unknown exhibit \"" << name
                      << "\" (run 'crw-bench list' for the available "
                         "exhibits)\n\n";
            printUsage(std::cerr);
            return 2;
        }
        select(ex);
    }
    return runSelected(selected, flags);
}

} // namespace bench
} // namespace crw
