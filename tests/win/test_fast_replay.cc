/**
 * @file
 * The oracle contract of per-point replay (DESIGN.md §12): a default
 * ReplayDriver that predecodes the trace itself and runs the
 * production loop — the lockstep loop of trace/replay_batch.h at
 * width one — must produce RunMetrics bit-identical to the
 * virtual-Scheme oracle loop at every (scheme, windows, policy,
 * PRW-reclaim, alloc-policy) point; and a default run carrying an
 * observer must replay on the oracle and deliver the exact callback
 * stream of a forced-oracle run.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spell/capture.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"

namespace crw {
namespace {

/** Small corpus keeps the full variant matrix under a second. */
SpellConfig
smallConfig()
{
    SpellConfig cfg;
    cfg.corpusBytes = 3000;
    cfg.dictBytes = 4000;
    cfg.vocabularyWords = 500;
    cfg.m = 1;
    cfg.n = 1;
    return cfg;
}

const EventTrace &
smallTrace()
{
    static const EventTrace trace = captureSpellTrace(
        SpellWorkload::make(smallConfig()), smallConfig());
    return trace;
}

/** Digest of every observer callback, order-sensitive via the mix. */
class DigestObserver final : public EngineObserver
{
  public:
    void
    onSave(ThreadId tid, int depth) override
    {
        mix(1, tid, depth, 0, 0);
    }
    void
    onRestore(ThreadId tid, int depth) override
    {
        mix(2, tid, depth, 0, 0);
    }
    void
    onSwitch(ThreadId from, ThreadId to, int to_depth, Cycles begin,
             Cycles end) override
    {
        mix(3, from, to, begin, end);
        mix(3, to_depth, 0, 0, 0);
    }
    void onExit(ThreadId tid) override { mix(4, tid, 0, 0, 0); }
    void
    onSaveTimed(ThreadId tid, int depth, Cycles begin,
                Cycles end) override
    {
        mix(5, tid, depth, begin, end);
    }
    void
    onRestoreTimed(ThreadId tid, int depth, Cycles begin,
                   Cycles end) override
    {
        mix(6, tid, depth, begin, end);
    }
    void
    onTrap(ThreadId tid, bool overflow, int windows_moved,
           Cycles begin, Cycles end) override
    {
        mix(overflow ? 7 : 8, tid, windows_moved, begin, end);
    }

    std::uint64_t digest() const { return digest_; }
    std::uint64_t events() const { return events_; }

  private:
    void
    mix(std::uint64_t tag, std::uint64_t a, std::uint64_t b,
        std::uint64_t c, std::uint64_t d)
    {
        ++events_;
        for (const std::uint64_t v : {tag, a, b, c, d}) {
            digest_ ^= v + 0x9e3779b97f4a7c15ull + (digest_ << 6) +
                       (digest_ >> 2);
        }
    }

    std::uint64_t digest_ = 0;
    std::uint64_t events_ = 0;
};

struct Variant
{
    SchemeKind scheme;
    int windows;
    SchedPolicy policy;
    PrwReclaim prw;
    AllocPolicy alloc;
};

std::vector<Variant>
allVariants()
{
    std::vector<Variant> out;
    for (const SchedPolicy policy :
         {SchedPolicy::Fifo, SchedPolicy::WorkingSet}) {
        for (const int windows : {4, 8}) {
            // NS and Infinite ignore the PRW/alloc knobs.
            out.push_back({SchemeKind::NS, windows, policy,
                           PrwReclaim::Eager, AllocPolicy::Simple});
            out.push_back({SchemeKind::Infinite, windows, policy,
                           PrwReclaim::Eager, AllocPolicy::Simple});
            for (const AllocPolicy alloc :
                 {AllocPolicy::Simple, AllocPolicy::FreeSearch}) {
                out.push_back({SchemeKind::SNP, windows, policy,
                               PrwReclaim::Eager, alloc});
                for (const PrwReclaim prw :
                     {PrwReclaim::Lazy, PrwReclaim::Eager,
                      PrwReclaim::EagerFolded})
                    out.push_back({SchemeKind::SP, windows, policy,
                                   prw, alloc});
            }
        }
    }
    return out;
}

std::string
variantName(const Variant &v)
{
    std::ostringstream os;
    os << schemeName(v.scheme) << "/w" << v.windows << "/"
       << policyName(v.policy) << "/prw" << static_cast<int>(v.prw)
       << "/alloc" << static_cast<int>(v.alloc);
    return os.str();
}

RunMetrics
replayOnce(const Variant &v, ReplayPath path,
           DigestObserver *observer)
{
    EngineConfig ec;
    ec.scheme = v.scheme;
    ec.numWindows = v.windows;
    ec.prwReclaim = v.prw;
    ec.allocPolicy = v.alloc;
    ReplayDriver driver(smallTrace(), ec, v.policy);
    driver.setPath(path);
    if (observer)
        driver.engine().setObserver(observer);
    driver.run();
    return driver.metrics();
}

/**
 * No FlatTrace is attached here, so every production run predecodes
 * privately; the batch-replay width-1 anchor covers the attached case.
 */
TEST(FastReplayEquivalence, BitIdenticalMetricsAcrossAllVariants)
{
    for (const Variant &v : allVariants()) {
        const RunMetrics legacy =
            replayOnce(v, ReplayPath::Legacy, nullptr);
        const RunMetrics production =
            replayOnce(v, ReplayPath::Auto, nullptr);
        EXPECT_TRUE(metricsBitIdentical(legacy, production))
            << variantName(v);
    }
}

/**
 * The production view has no observer hooks, so an observed Auto run
 * takes the oracle: its callback stream equals a forced-Legacy run's,
 * and its metrics equal a headless Auto (production) run's.
 */
TEST(FastReplayEquivalence, IdenticalObserverStreamsWhenInstalled)
{
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP,
          SchemeKind::Infinite}) {
        const Variant v{scheme, 6, SchedPolicy::Fifo,
                        PrwReclaim::Eager, AllocPolicy::Simple};
        DigestObserver legacy_obs, auto_obs;
        const RunMetrics legacy =
            replayOnce(v, ReplayPath::Legacy, &legacy_obs);
        const RunMetrics observed =
            replayOnce(v, ReplayPath::Auto, &auto_obs);
        const RunMetrics headless =
            replayOnce(v, ReplayPath::Auto, nullptr);
        EXPECT_TRUE(metricsBitIdentical(legacy, observed))
            << variantName(v);
        EXPECT_TRUE(metricsBitIdentical(headless, observed))
            << variantName(v);
        EXPECT_EQ(legacy_obs.events(), auto_obs.events())
            << variantName(v);
        EXPECT_EQ(legacy_obs.digest(), auto_obs.digest())
            << variantName(v);
        EXPECT_GT(legacy_obs.events(), 0u) << variantName(v);
    }
}

} // namespace
} // namespace crw
