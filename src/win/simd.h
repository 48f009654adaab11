/**
 * @file
 * SIMD dispatch tier for the batched follower replay (DESIGN.md §16).
 *
 * The lane-SoA follower pass (win/engine_batch.h) of the NS and INF
 * schemes has three kernel flavors for its vectorizable window math:
 * an AVX2 path (8 lanes per step), an SSE2 path (4 lanes per step),
 * and a portable scalar-loop fallback the compiler is free to
 * autovectorize. On top of those sits the `Scalar` tier, which
 * bypasses the SoA pass entirely and runs the per-lane follower
 * replay — that path is the bit-identity oracle every SoA flavor is
 * differentially pinned against, and the baseline the `simd_speedup`
 * bench gate measures from. The sharing schemes (SNP, SP) take the
 * per-lane pass on every tier, so the tier only picks NS/INF kernels.
 *
 * Tier selection: $CRW_SIMD (`auto` | `avx2` | `sse2` | `scalar`),
 * strictly parsed — junk warns once and falls back to `auto`, the same
 * convention as $CRW_REPLAY_BATCH (bench/executor.h). `auto` resolves
 * to the widest tier the CPU supports; an explicit request above the
 * CPU's capability warns and clamps. On non-x86 builds the sse2/avx2
 * tiers resolve to the portable SoA kernels (the pass still runs
 * lane-major; only the intrinsics are absent), so the env contract is
 * identical everywhere.
 */

#ifndef CRW_WIN_SIMD_H_
#define CRW_WIN_SIMD_H_

namespace crw {

/** Follower-replay dispatch tier, in increasing width order. */
enum class SimdTier : int {
    Scalar = 0, ///< per-lane AoS follower replay (the oracle path)
    Sse2 = 1,   ///< lane-SoA pass, 4-lane (128-bit) kernels
    Avx2 = 2,   ///< lane-SoA pass, 8-lane (256-bit) kernels
};

/** Canonical lower-case name ("scalar" / "sse2" / "avx2"). */
const char *simdTierName(SimdTier tier);

/**
 * The effective dispatch tier: the test/bench override if one is set,
 * else $CRW_SIMD resolved against the CPU (parsed and probed once per
 * process). This is what BatchedEngineView::finish() dispatches on
 * and what the executor publishes as replay.simd_path.
 */
SimdTier effectiveSimdTier();

/**
 * Strictly parse a $CRW_SIMD value. nullptr/empty and "auto" resolve
 * against @p cpu_max (the widest tier the CPU supports); junk warns to
 * stderr and falls back to auto; a named tier above @p cpu_max warns
 * and clamps to it. Exposed for tests.
 */
SimdTier parseSimdTier(const char *text, SimdTier cpu_max);

/** Widest tier the running CPU supports (probed once, cached). */
SimdTier cpuMaxSimdTier();

/**
 * Pin the effective tier for this process (benches time scalar vs
 * SIMD in-process; tests pin each flavor against the oracle).
 * Overrides above cpuMaxSimdTier() clamp exactly like $CRW_SIMD.
 */
void setSimdTierOverride(SimdTier tier);

/** Drop the override; effectiveSimdTier() re-reads $CRW_SIMD. */
void clearSimdTierOverride();

} // namespace crw

#endif // CRW_WIN_SIMD_H_
