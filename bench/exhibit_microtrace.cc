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
 * The walks drive the production engine view (win/engine_batch.h), the
 * second client of BatchedEngineView after the trace replay: all window
 * counts of one (depth, scheme) pair walk in lockstep, the leader lane
 * walking the Rng once and the other lanes replaying its op stream. No
 * EventTrace is involved, so microtrace has no plan contribution and
 * still bypasses the plan/cache layer (ROADMAP item 4). Its walks fan
 * out on the worker pool (--jobs), each writing its own table slots;
 * rendering and checks stay serial.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "bench/microtrace.h"
#include "common/chart.h"
#include "common/rng.h"
#include "common/table.h"
#include "win/engine_batch.h"

namespace crw {
namespace bench {
namespace {

template <typename SchemeT>
void
walkLanes(const WalkShape &walk, WindowEngine *const *engines,
          std::size_t lanes, int chunk_quanta)
{
    Rng rng(walk.seed);
    ThreadId current = 0;
    for (int q0 = 0; q0 < walk.quanta; q0 += chunk_quanta) {
        // Every view after the first picks up where the previous one's
        // finish() left all lanes: at the leader's schedule point.
        BatchedEngineView<SchemeT> view(*engines[0], engines + 1, lanes);
        if (q0 == 0)
            view.contextSwitch(current);
        const int q1 = std::min(walk.quanta, q0 + chunk_quanta);
        for (int q = q0; q < q1; ++q) {
            int d = view.depth(current);
            for (int s = 0; s < walk.stepsPerQuantum; ++s) {
                const bool up =
                    d <= 1 || (d < walk.maxDepth && rng.nextBool(0.5));
                if (up) {
                    view.save();
                    ++d;
                } else {
                    view.restore();
                    --d;
                }
                view.charge(kStepCharge);
            }
            const ThreadId next =
                static_cast<ThreadId>((current + 1) % walk.threads);
            view.contextSwitch(next);
            current = next;
        }
        // A walk records no residency checkpoints, so it never
        // diverges.
        const bool ok = view.finish();
        crw_assert(ok);
    }
}

} // namespace

void
runWalk(const WalkShape &walk, WindowEngine *const *engines,
        std::size_t lanes, int chunk_quanta)
{
    crw_assert(lanes > 0 && chunk_quanta > 0);
    for (std::size_t l = 0; l < lanes; ++l)
        for (ThreadId t = 0; t < walk.threads; ++t)
            engines[l]->addThread(t);
    visitSchemeClass(engines[0]->scheme(), [&](auto scheme_tag) {
        using SchemeT = typename decltype(scheme_tag)::type;
        walkLanes<SchemeT>(walk, engines, lanes, chunk_quanta);
    });
}

int
runMicrotrace(const FlagSet &)
{
    banner("Microtraces: random call-depth walks (4 threads, "
           "200-step quanta)");

    SelfCheck check;

    // Every (depth, scheme) pair walks once on the pool, as one lockstep
    // unit whose lanes are the whole window sweep: a walk's choices read
    // only the call depth, so every window count follows one op
    // sequence. Each lane's clock fills its slot of one table per
    // depth, indexed [scheme][window index]; the figures, the shape
    // checks and the saturation scan all read these tables. (Six
    // 12-lane units finished as fast as twelve 6-lane ones on 4
    // workers and took ~15% less CPU: each unit pays a leader walk.)
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
    ParallelSweep(sweepJobs(), "host.microtrace.worker_busy_s")
        .run(2 * 3, [&](std::size_t k) {
            const std::size_t di = k / 3;
            const std::size_t si = k % 3;
            WalkShape walk;
            walk.maxDepth = depths[di];
            std::vector<std::unique_ptr<WindowEngine>> owned;
            std::vector<WindowEngine *> lanes;
            for (const int windows : sweep) {
                EngineConfig cfg;
                cfg.numWindows = windows;
                cfg.scheme = schemes[si];
                owned.push_back(std::make_unique<WindowEngine>(cfg));
                lanes.push_back(owned.back().get());
            }
            runWalk(walk, lanes.data(), lanes.size());
            for (std::size_t wi = 0; wi < sweep.size(); ++wi)
                walks[di][si][wi] = lanes[wi]->now();
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
