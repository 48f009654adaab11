/**
 * @file
 * Synthetic microtraces: random call-depth walks driven straight into
 * the window engine, independent of the spell checker. They give a
 * second workload family for the paper's claims:
 *
 *  - the sharing schemes' execution time saturates once the total
 *    window activity fits the file (paper §6.3);
 *  - window activity per thread is the knob: deeper walks move every
 *    curve's saturation point right;
 *  - with one thread and no switches, all three schemes behave like
 *    the conventional single-thread algorithm (sanity: the relative
 *    overhead of traps stays small when depth locality is high, the
 *    regime in which Tamir & Sequin showed one-window transfers are
 *    best — the only transfer size all crw handlers use).
 *
 * Drives WindowEngine directly (no EventTrace, no replay), so it has
 * no plan contribution and still bypasses the plan/cache layer
 * (ROADMAP item 4). Its walks fan out on the worker pool (--jobs),
 * each writing its own table slot; rendering and checks stay serial.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "common/chart.h"
#include "common/rng.h"
#include "common/table.h"

namespace crw {
namespace bench {
namespace {

/** Random-walk workload: @p threads round-robin, depth walks +-1. */
Cycles
runWalk(SchemeKind scheme, int windows, int threads, int max_depth,
        int steps_per_quantum, int quanta, std::uint64_t seed)
{
    EngineConfig cfg;
    cfg.numWindows = windows;
    cfg.scheme = scheme;
    WindowEngine engine(cfg);
    Rng rng(seed);

    std::vector<int> depth(static_cast<std::size_t>(threads), 1);
    for (ThreadId t = 0; t < threads; ++t)
        engine.addThread(t);

    ThreadId current = 0;
    engine.contextSwitch(current);
    for (int q = 0; q < quanta; ++q) {
        int &d = depth[static_cast<std::size_t>(current)];
        for (int s = 0; s < steps_per_quantum; ++s) {
            const bool up =
                d <= 1 || (d < max_depth && rng.nextBool(0.5));
            if (up) {
                engine.save();
                ++d;
            } else {
                engine.restore();
                --d;
            }
            engine.charge(20);
        }
        const ThreadId next =
            static_cast<ThreadId>((current + 1) % threads);
        engine.contextSwitch(next);
        current = next;
    }
    return engine.now();
}

} // namespace

int
runMicrotrace(const FlagSet &)
{
    banner("Microtraces: random call-depth walks (4 threads, "
           "200-step quanta)");

    SelfCheck check;

    // Every (depth, scheme, windows) walk runs once on the pool, into
    // one table per depth indexed [scheme][window index]; the figures,
    // the shape checks and the saturation scan all read these tables.
    const std::vector<int> &sweep = defaultWindowSweep();
    const SchemeKind schemes[] = {SchemeKind::NS, SchemeKind::SNP,
                                  SchemeKind::SP};
    const int depths[] = {4, 8};
    const std::size_t kNs = 0, kSp = 2;
    using WalkTable = std::vector<std::vector<Cycles>>;
    const auto at = [&sweep](const WalkTable &table, std::size_t scheme,
                             int windows) {
        const auto it = std::find(sweep.begin(), sweep.end(), windows);
        return table[scheme].at(
            static_cast<std::size_t>(it - sweep.begin()));
    };

    std::vector<WalkTable> walks(
        2, WalkTable(3, std::vector<Cycles>(sweep.size())));
    const std::size_t per_depth = 3 * sweep.size();
    ParallelSweep(sweepJobs()).run(2 * per_depth, [&](std::size_t k) {
        const std::size_t di = k / per_depth;
        const std::size_t si = k % per_depth / sweep.size();
        const std::size_t wi = k % sweep.size();
        walks[di][si][wi] = runWalk(schemes[si], sweep[wi], 4,
                                    depths[di], 200, 3000, 99);
    });

    for (std::size_t di = 0; di < 2; ++di) {
        const int max_depth = depths[di];
        const WalkTable &cycles = walks[di];
        Table table({"windows", "NS", "SNP", "SP"});
        AsciiChart chart("Microtrace: walk depth <= " +
                             std::to_string(max_depth),
                         "number of windows", "Mcycles");
        chart.setYFromZero(true);
        std::vector<ChartSeries> series(3);
        for (std::size_t i = 0; i < 3; ++i)
            series[i].name = schemeName(schemes[i]);

        for (std::size_t wi = 0; wi < sweep.size(); ++wi) {
            const int w = sweep[wi];
            std::vector<std::string> row{std::to_string(w)};
            for (std::size_t i = 0; i < 3; ++i) {
                const Cycles c = cycles[i][wi];
                row.push_back(formatDouble(c / 1e6, 3));
                series[i].xs.push_back(w);
                series[i].ys.push_back(static_cast<double>(c) / 1e6);
            }
            table.addRow(std::move(row));
        }
        for (auto &s : series)
            chart.addSeries(std::move(s));
        emitFigure("Microtrace sweep, max depth " +
                       std::to_string(max_depth),
                   "windows", "Mcycles", table, chart,
                   "microtrace_d" + std::to_string(max_depth) +
                       ".csv");

        // Saturation scales with total window activity (~threads x
        // depth): the deep walk needs more windows than the shallow
        // one before SP matches its asymptote.
        const Cycles sp_small = at(cycles, kSp, 8);
        const Cycles sp_large = at(cycles, kSp, 32);
        check(sp_large <= sp_small,
              "more windows never hurt SP (depth " +
                  std::to_string(max_depth) + ")");
        const Cycles ns_large = at(cycles, kNs, 32);
        check(sp_large < ns_large,
              "SP beats NS with ample windows (depth " +
                  std::to_string(max_depth) + ")");
    }

    // Depth scaling: the deeper walk saturates later.
    const auto saturation = [&](const WalkTable &cycles) {
        const Cycles best = at(cycles, kSp, 32);
        for (std::size_t wi = 0; wi < sweep.size(); ++wi)
            if (cycles[kSp][wi] <= best + best / 33)
                return sweep[wi];
        return 32;
    };
    const int sat4 = saturation(walks[0]);
    const int sat8 = saturation(walks[1]);
    check(sat8 >= sat4,
          "deeper walks saturate at more windows (activity knob): " +
              std::to_string(sat4) + " -> " + std::to_string(sat8));
    return check.exitCode();
}

} // namespace bench
} // namespace crw
