/**
 * @file
 * The lockstep-batch contract (trace/replay_batch.h, DESIGN.md §14):
 * one forward pass over a FlatTrace advancing K engine states must
 * leave every lane with RunMetrics bit-identical to a per-point
 * replay of the same (scheme, windows, policy, PRW, alloc) point —
 * through both the width-1 loop every default ReplayDriver runs
 * (pinned against the legacy oracle at every variant) and the
 * multi-lane BatchedReplayDriver, including ragged (non-power-of-two,
 * mixed-variant) batches — and on every follower dispatch tier
 * (win/simd.h): the scalar per-lane pass and the NS/INF lane-SoA
 * pass with SSE2/AVX2 kernels must agree bit-for-bit at every lane
 * width (DESIGN.md §16). Working-set batches must either complete
 * lockstep bit-identically or report divergence so the caller can
 * fall back per-point — including divergence detected inside a
 * partially-filled SIMD chunk; a diverged batch must not poison
 * fresh per-point drivers.
 */

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spell/capture.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"
#include "trace/synth.h"
#include "win/simd.h"

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

const FlatTrace &
smallFlat()
{
    static const FlatTrace flat = FlatTrace::build(smallTrace());
    return flat;
}

struct Variant
{
    SchemeKind scheme;
    int windows;
    SchedPolicy policy;
    PrwReclaim prw;
    AllocPolicy alloc;
};

/**
 * A generated behavior with rotating per-thread priorities and a
 * lock-contention segment: Priority genuinely reorders dispatches
 * here (the spell trace's all-zero priorities reduce PRI to FIFO),
 * and the blocked lock contenders exercise wake placement under every
 * policy.
 */
SynthSpec
prioritizedSpec()
{
    SynthSpec spec;
    spec.topology = SynthSpec::Topology::FanInOut;
    spec.threads = 4;
    spec.items = 200;
    spec.streamCapacity = 2;
    spec.meanDepth = 5;
    spec.depthJitter = 3;
    spec.meanCharge = 60;
    spec.lockRounds = 20;
    spec.prioritized = true;
    spec.seed = 7;
    return spec;
}

const EventTrace &
synthTrace()
{
    static const EventTrace trace =
        generateSynthTrace(prioritizedSpec());
    return trace;
}

const FlatTrace &
synthFlat()
{
    static const FlatTrace flat = FlatTrace::build(synthTrace());
    return flat;
}

std::vector<Variant>
allVariants()
{
    std::vector<Variant> out;
    for (const SchedPolicy policy : allSchedPolicies()) {
        for (const int windows : {4, 8}) {
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

EngineConfig
configOf(const Variant &v)
{
    EngineConfig ec;
    ec.scheme = v.scheme;
    ec.numWindows = v.windows;
    ec.prwReclaim = v.prw;
    ec.allocPolicy = v.alloc;
    return ec;
}

RunMetrics
replayTrace(const EventTrace &trace, const FlatTrace &flat,
            const Variant &v, ReplayPath path)
{
    ReplayDriver driver(trace, configOf(v), v.policy, &flat);
    driver.setPath(path);
    driver.run();
    return driver.metrics();
}

RunMetrics
replayOnce(const Variant &v, ReplayPath path)
{
    return replayTrace(smallTrace(), smallFlat(), v, path);
}

/** Scoped follower-dispatch pin (win/simd.h). */
class ScopedTier
{
  public:
    explicit ScopedTier(SimdTier tier) { setSimdTierOverride(tier); }
    ~ScopedTier() { clearSimdTierOverride(); }
};

/** Scalar + every vector tier the host can actually run. */
std::vector<SimdTier>
hostTiers()
{
    std::vector<SimdTier> tiers{SimdTier::Scalar, SimdTier::Sse2};
    if (cpuMaxSimdTier() == SimdTier::Avx2)
        tiers.push_back(SimdTier::Avx2);
    return tiers;
}

/**
 * The differential anchor: a default (Auto) ReplayDriver runs the
 * lockstep loop at width one — the production per-point path — where
 * lane divergence is impossible, so it must agree with the legacy
 * oracle at every variant: every scheme, policy, PRW reclamation and
 * allocation policy, the working-set ones included.
 */
TEST(BatchReplay, Width1BatchedLoopMatchesOracleAndFastEverywhere)
{
    for (const Variant &v : allVariants())
        EXPECT_TRUE(metricsBitIdentical(replayOnce(v, ReplayPath::Legacy),
                                        replayOnce(v, ReplayPath::Auto)))
            << variantName(v);
}

/** Per-lane differential: batch lanes against per-point runs. */
void
expectLanesMatchPerPoint(const std::vector<Variant> &lanes)
{
    ASSERT_FALSE(lanes.empty());
    std::vector<EngineConfig> configs;
    configs.reserve(lanes.size());
    for (const Variant &v : lanes) {
        ASSERT_EQ(static_cast<int>(v.policy),
                  static_cast<int>(lanes[0].policy));
        configs.push_back(configOf(v));
    }
    BatchedReplayDriver batch(smallTrace(), configs, lanes[0].policy,
                              &smallFlat());
    ASSERT_TRUE(batch.run());
    ASSERT_EQ(batch.lanes(), lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        const RunMetrics solo =
            replayOnce(lanes[l], ReplayPath::Auto);
        EXPECT_TRUE(metricsBitIdentical(solo, batch.metrics(l)))
            << "lane " << l << ": " << variantName(lanes[l]);
    }
}

TEST(BatchReplay, FifoLockstepLanesBitIdenticalPerScheme)
{
    // Ragged on purpose: five lanes, windows unsorted.
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP,
          SchemeKind::Infinite}) {
        std::vector<Variant> lanes;
        for (const int windows : {8, 4, 20, 5, 32})
            lanes.push_back({scheme, windows, SchedPolicy::Fifo,
                             PrwReclaim::Eager, AllocPolicy::Simple});
        expectLanesMatchPerPoint(lanes);
    }
}

TEST(BatchReplay, FifoLanesMayDifferInPrwAndAllocPolicy)
{
    // One SP batch mixing every per-lane knob the batch key leaves
    // free: window count, PRW reclamation and allocation policy.
    std::vector<Variant> lanes;
    for (const int windows : {4, 8, 12}) {
        for (const PrwReclaim prw :
             {PrwReclaim::Lazy, PrwReclaim::Eager,
              PrwReclaim::EagerFolded})
            lanes.push_back({SchemeKind::SP, windows,
                             SchedPolicy::Fifo, prw,
                             AllocPolicy::Simple});
        lanes.push_back({SchemeKind::SP, windows, SchedPolicy::Fifo,
                         PrwReclaim::Eager, AllocPolicy::FreeSearch});
    }
    expectLanesMatchPerPoint(lanes);

    std::vector<Variant> snp;
    for (const AllocPolicy alloc :
         {AllocPolicy::Simple, AllocPolicy::FreeSearch})
        for (const int windows : {4, 10, 24})
            snp.push_back({SchemeKind::SNP, windows, SchedPolicy::Fifo,
                           PrwReclaim::Eager, alloc});
    expectLanesMatchPerPoint(snp);
}

TEST(BatchReplay, SingleLaneBatchDriverMatchesFast)
{
    const Variant v{SchemeKind::SP, 8, SchedPolicy::Fifo,
                    PrwReclaim::Eager, AllocPolicy::Simple};
    BatchedReplayDriver batch(smallTrace(), {configOf(v)}, v.policy,
                              &smallFlat());
    ASSERT_TRUE(batch.run());
    EXPECT_TRUE(metricsBitIdentical(replayOnce(v, ReplayPath::Auto),
                                    batch.metrics(0)));
}

/**
 * The SIMD follower pass across every lane width the chunking can
 * produce: exact vector multiples (8, 16, 32), partial tail chunks
 * (2, 3, 7) and every host tier must leave each lane bit-identical
 * to its per-point replay AND to the scalar-tier batch — the
 * dispatch tier is a host-side choice, never a semantic one. Only NS
 * and INF have a lane-SoA pass; the sharing schemes replay per lane
 * on every tier.
 */
TEST(BatchReplay, EveryTierBitIdenticalAcrossLaneWidths)
{
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::Infinite}) {
        // 33 and 40 cross the 32-lane boundary: lane indices past 31
        // once silently escaped the vector wake check's 32-bit mask
        // accumulator, so widths > 32 must stay covered.
        for (const std::size_t width :
             {2u, 3u, 7u, 8u, 16u, 32u, 33u, 40u}) {
            std::vector<Variant> lanes;
            for (std::size_t i = 0; i < width; ++i)
                lanes.push_back({scheme,
                                 4 + static_cast<int>(i) * 3,
                                 SchedPolicy::Fifo, PrwReclaim::Eager,
                                 AllocPolicy::Simple});
            std::vector<EngineConfig> configs;
            for (const Variant &v : lanes)
                configs.push_back(configOf(v));

            std::vector<std::vector<RunMetrics>> perTier;
            for (const SimdTier tier : hostTiers()) {
                const ScopedTier pin(tier);
                BatchedReplayDriver batch(smallTrace(), configs,
                                          SchedPolicy::Fifo,
                                          &smallFlat());
                ASSERT_TRUE(batch.run())
                    << schemeName(scheme) << " width " << width
                    << " tier " << simdTierName(tier);
                std::vector<RunMetrics> ms;
                for (std::size_t l = 0; l < width; ++l)
                    ms.push_back(batch.metrics(l));
                perTier.push_back(std::move(ms));
            }
            // Tier 0 is the scalar per-lane pass: pin it against
            // fresh per-point replays, then every other tier against
            // it.
            for (std::size_t l = 0; l < width; ++l)
                EXPECT_TRUE(metricsBitIdentical(
                    replayOnce(lanes[l], ReplayPath::Auto),
                    perTier[0][l]))
                    << schemeName(scheme) << " width " << width
                    << " scalar lane " << l;
            for (std::size_t t = 1; t < perTier.size(); ++t)
                for (std::size_t l = 0; l < width; ++l)
                    EXPECT_TRUE(metricsBitIdentical(perTier[0][l],
                                                    perTier[t][l]))
                        << schemeName(scheme) << " width " << width
                        << " tier " << t << " lane " << l;
        }
    }
}

/**
 * Working-set batches whose lanes answer every residency wake the
 * same way must complete lockstep: identical configs are the
 * by-construction case.
 */
TEST(BatchReplay, WorkingSetIdenticalLanesNeverDiverge)
{
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP}) {
        const Variant v{scheme, 8, SchedPolicy::WorkingSet,
                        PrwReclaim::Eager, AllocPolicy::Simple};
        const std::vector<EngineConfig> configs(3, configOf(v));
        BatchedReplayDriver batch(smallTrace(), configs, v.policy,
                                  &smallFlat());
        ASSERT_TRUE(batch.run()) << schemeName(scheme);
        const RunMetrics solo = replayOnce(v, ReplayPath::Auto);
        for (std::size_t l = 0; l < batch.lanes(); ++l)
            EXPECT_TRUE(metricsBitIdentical(solo, batch.metrics(l)))
                << schemeName(scheme) << " lane " << l;
    }
}

/**
 * The divergence contract: a heterogeneous working-set batch either
 * completes with every lane bit-identical to its per-point run, or
 * reports divergence — and in that case fresh per-point drivers must
 * still reproduce the oracle (the executor's fallback path). Both
 * outcomes are legal per scheme; what is never legal is a "completed"
 * batch whose lanes disagree with their per-point runs.
 */
TEST(BatchReplay, WorkingSetBatchCompletesExactlyOrReportsDivergence)
{
    bool sawDivergence = false;
    for (const SchemeKind scheme :
         {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP}) {
        std::vector<Variant> lanes;
        for (const int windows : {4, 8, 32})
            lanes.push_back({scheme, windows, SchedPolicy::WorkingSet,
                             PrwReclaim::Eager, AllocPolicy::Simple});
        std::vector<EngineConfig> configs;
        for (const Variant &v : lanes)
            configs.push_back(configOf(v));
        BatchedReplayDriver batch(smallTrace(), configs,
                                  SchedPolicy::WorkingSet,
                                  &smallFlat());
        if (batch.run()) {
            for (std::size_t l = 0; l < lanes.size(); ++l)
                EXPECT_TRUE(metricsBitIdentical(
                    replayOnce(lanes[l], ReplayPath::Auto),
                    batch.metrics(l)))
                    << "lane " << l << ": " << variantName(lanes[l]);
        } else {
            sawDivergence = true;
            for (const Variant &v : lanes) {
                EXPECT_TRUE(metricsBitIdentical(
                    replayOnce(v, ReplayPath::Legacy),
                    replayOnce(v, ReplayPath::Auto)))
                    << variantName(v);
            }
        }
    }
    // Window counts 4 vs 32 under the contended behavior disagree on
    // residency at some wake for at least one scheme; if this ever
    // fails, the divergence path has lost its coverage — find a
    // diverging batch and update the lanes above.
    EXPECT_TRUE(sawDivergence);
}

/**
 * Regression: the wake check must vote EVERY live lane, not just the
 * first 32 — batch width is bounded by kMaxReplayBatch (1024), not by
 * one movemask accumulator word. The disagreeing config is parked at
 * the highest lane indices, so a check that stops (or wraps its
 * shifts) at lane 32 "completes" the batch with wrong high-lane
 * results instead of reporting divergence. Only the sharing schemes'
 * lanes can disagree on residency (NS flushes every switched-out
 * thread, so every NS lane answers alike), and they vote per lane on
 * every tier; the vector vote itself is pinned beyond lane 32 in
 * LaneSoaKernels.WakeMismatchMasksPaddingLanes.
 */
TEST(BatchReplay, WideWorkingSetBatchChecksLanesBeyond32)
{
    bool sawDivergence = false;
    for (const SimdTier tier : hostTiers()) {
        if (tier == SimdTier::Scalar)
            continue;
        const ScopedTier pin(tier);
        for (const SchemeKind scheme :
             {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP}) {
            // 33 identical roomy lanes, then the starved lanes whose
            // residency answers can disagree — all past index 31.
            std::vector<Variant> lanes(
                33, Variant{scheme, 32, SchedPolicy::WorkingSet,
                            PrwReclaim::Eager, AllocPolicy::Simple});
            for (const int windows : {4, 6, 8})
                lanes.push_back({scheme, windows,
                                 SchedPolicy::WorkingSet,
                                 PrwReclaim::Eager,
                                 AllocPolicy::Simple});
            std::vector<EngineConfig> configs;
            for (const Variant &v : lanes)
                configs.push_back(configOf(v));
            BatchedReplayDriver batch(smallTrace(), configs,
                                      SchedPolicy::WorkingSet,
                                      &smallFlat());
            if (batch.run()) {
                for (std::size_t l = 0; l < lanes.size(); ++l)
                    EXPECT_TRUE(metricsBitIdentical(
                        replayOnce(lanes[l], ReplayPath::Auto),
                        batch.metrics(l)))
                        << simdTierName(tier) << " "
                        << schemeName(scheme) << " lane " << l;
            } else {
                sawDivergence = true;
                for (const Variant &v : lanes)
                    EXPECT_TRUE(metricsBitIdentical(
                        replayOnce(v, ReplayPath::Legacy),
                        replayOnce(v, ReplayPath::Auto)))
                        << simdTierName(tier) << ": "
                        << variantName(v);
            }
        }
    }
    // Windows 4 vs 32 disagree on residency at some wake for at least
    // one scheme on this behavior (same contention the narrower
    // divergence tests rely on) — without a diverging batch the
    // high-lane vote has no coverage.
    EXPECT_TRUE(sawDivergence);
}

/**
 * The published follower pass must be the one actually dispatched
 * (replay.simd_path feeds off BatchedReplayDriver::simdPath): NS
 * takes the SoA pass at the pinned (or ambient) vector tier, and the
 * sharing schemes report the scalar per-lane pass on every tier.
 */
TEST(BatchReplay, DriverReportsDispatchedSimdPath)
{
    const auto runBatch = [](SchemeKind scheme) {
        const Variant v{scheme, 8, SchedPolicy::Fifo,
                        PrwReclaim::Eager, AllocPolicy::Simple};
        const std::vector<EngineConfig> configs(3, configOf(v));
        BatchedReplayDriver batch(smallTrace(), configs, v.policy,
                                  &smallFlat());
        EXPECT_TRUE(batch.run()) << schemeName(scheme);
        return batch.simdPath();
    };
    EXPECT_EQ(runBatch(SchemeKind::NS), effectiveSimdTier());
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        EXPECT_EQ(runBatch(SchemeKind::NS), tier);
        EXPECT_EQ(runBatch(SchemeKind::SP), SimdTier::Scalar);
        EXPECT_EQ(runBatch(SchemeKind::SNP), SimdTier::Scalar);
    }
}

/**
 * The full policy family on a prioritized, lock-contended synthetic
 * behavior: every policy must produce bit-identical RunMetrics on the
 * Legacy oracle and the default (width-1 lockstep) loop — the replay
 * paths may never disagree, whichever policy reorders the dispatches.
 */
TEST(BatchReplay, AllPoliciesAgreeAcrossPathsOnPrioritizedSynth)
{
    for (const SchedPolicy policy : allSchedPolicies()) {
        for (const SchemeKind scheme :
             {SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP}) {
            for (const int windows : {4, 8}) {
                const Variant v{scheme, windows, policy,
                                PrwReclaim::Eager,
                                AllocPolicy::Simple};
                EXPECT_TRUE(metricsBitIdentical(
                    replayTrace(synthTrace(), synthFlat(), v,
                                ReplayPath::Legacy),
                    replayTrace(synthTrace(), synthFlat(), v,
                                ReplayPath::Auto)))
                    << variantName(v);
            }
        }
    }
}

/**
 * The lane-invariant policies (everything but the working-set family)
 * read no engine state, so a ragged multi-window batch must complete
 * lockstep — never diverge — with every lane bit-identical to its
 * per-point replay, even on the prioritized synthetic behavior.
 */
TEST(BatchReplay, LaneInvariantPoliciesBatchLocksteppedOnSynth)
{
    for (const SchedPolicy policy :
         {SchedPolicy::Fifo, SchedPolicy::RoundRobin,
          SchedPolicy::Priority}) {
        std::vector<Variant> lanes;
        for (const int windows : {8, 4, 20, 5, 32})
            lanes.push_back({SchemeKind::SP, windows, policy,
                             PrwReclaim::Eager, AllocPolicy::Simple});
        std::vector<EngineConfig> configs;
        for (const Variant &v : lanes)
            configs.push_back(configOf(v));
        BatchedReplayDriver batch(synthTrace(), configs, policy,
                                  &synthFlat());
        ASSERT_TRUE(batch.run()) << policyName(policy);
        for (std::size_t l = 0; l < lanes.size(); ++l)
            EXPECT_TRUE(metricsBitIdentical(
                replayTrace(synthTrace(), synthFlat(), lanes[l],
                            ReplayPath::Auto),
                batch.metrics(l)))
                << policyName(policy) << " lane " << l;
    }
}

/**
 * Priority's reduction contract: on an all-zero-priority trace (every
 * spell capture) PRI is FIFO exactly — same level, same ring, same
 * order — so legacy result-cache semantics carry over unchanged. On a
 * trace with real priorities it must actually reorder the schedule.
 */
TEST(BatchReplay, PriorityReducesToFifoWithoutPrioritiesOnly)
{
    const Variant fifo{SchemeKind::SP, 8, SchedPolicy::Fifo,
                       PrwReclaim::Eager, AllocPolicy::Simple};
    Variant pri = fifo;
    pri.policy = SchedPolicy::Priority;

    // RunMetrics names its own policy, so normalize that identity
    // field: what must (or must not) coincide is the schedule-derived
    // remainder.
    RunMetrics priSpell = replayOnce(pri, ReplayPath::Auto);
    priSpell.policy = SchedPolicy::Fifo;
    EXPECT_TRUE(metricsBitIdentical(replayOnce(fifo, ReplayPath::Auto),
                                    priSpell));

    RunMetrics priSynth = replayTrace(synthTrace(), synthFlat(), pri,
                                      ReplayPath::Auto);
    priSynth.policy = SchedPolicy::Fifo;
    EXPECT_FALSE(metricsBitIdentical(
        replayTrace(synthTrace(), synthFlat(), fifo,
                    ReplayPath::Auto),
        priSynth));
}

} // namespace
} // namespace crw
