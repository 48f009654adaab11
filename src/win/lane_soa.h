/**
 * @file
 * LaneSoA: transposed per-lane state for the batched follower replay,
 * plus the SIMD kernels that advance it (DESIGN.md §16).
 *
 * The batched lockstep view (win/engine_batch.h) records one engine-op
 * stream and replays it through every follower lane. The PR 7 pass ran
 * one lane per stream walk — K - 1 full walks, with each lane's state
 * scattered across its own WindowEngine. This layer flips the loop
 * order for NS and INF: the hot per-lane state (resident counts,
 * stack-top cursors, trap tallies, clock offsets) is transposed into
 * lane-major arrays padded to the widest vector (8 × i32), and one
 * walk over the stream applies each op to all lanes at once. The
 * sharing schemes (SNP, SP) always replay per lane.
 *
 * What vectorizes is the run math, not the op dispatch: consecutive
 * saves (or restores) by one thread fold into closed forms over the
 * resident count (win/scheme.h nsSaveRunFold / restoreRunFold), so a
 * call-depth excursion of length k becomes ONE kernel call of
 * branch-free min/max lane arithmetic instead of k trap-branch
 * iterations per lane. Context switches and exits stay scalar per
 * lane — they are rare — but they run against the same compact SoA
 * state, so the whole pass touches one small working set once per
 * stream.
 *
 * Three kernel flavors sit behind laneKernels(tier): AVX2 (8 lanes per
 * step), SSE2 (4 lanes per step; min/max emulated — pminsd is SSE4.1),
 * and a portable scalar loop that is also the non-x86 build's only
 * flavor. Every flavor computes the identical integer recurrences, so
 * results are bit-identical across tiers by construction; the scalar
 * *tier* (win/simd.h) bypasses this file entirely and remains the
 * differential oracle.
 */

#ifndef CRW_WIN_LANE_SOA_H_
#define CRW_WIN_LANE_SOA_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/aligned.h"
#include "common/types.h"
#include "win/simd.h"

namespace crw {

/**
 * The transposed follower-lane state. Per-lane arrays are padded to a
 * multiple of kSoaLaneStep and 64-byte aligned (common/aligned.h), so
 * every kernel step is one aligned full-width load. Thread-indexed
 * state is lane-major per thread: thread t's lane vector starts at
 * index t * pad — one contiguous, aligned chunk per (thread, array).
 *
 * Padding lanes are initialized benign (resident 0, cap 1, costs 0);
 * kernels run arithmetic over them but their tallies are never read
 * back, and the wake-check kernel masks them out of the comparison.
 */
struct LaneSoA
{
    /** i32 lanes per full-width vector step (AVX2). */
    static constexpr std::size_t kSoaLaneStep = 8;

    std::size_t lanes = 0; ///< live follower lanes
    std::size_t pad = 0;   ///< lanes rounded up to kSoaLaneStep
    int threads = 0;

    // Per-lane invariants, [pad].
    AlignedVec<std::int32_t> numWin; ///< window count
    AlignedVec<std::int32_t> nsCap;  ///< NS usable ceiling (N - 1)
    AlignedVec<std::uint64_t> ovfCost1; ///< overflowCost(1)
    AlignedVec<std::uint64_t> unfCost;  ///< underflowCost()

    // Per-lane accumulators, [pad]; folded into the engines' hot
    // counters at writeback.
    AlignedVec<std::uint64_t> ovfTraps, ovfSpilled;
    AlignedVec<std::uint64_t> unfTraps, unfRestored;
    AlignedVec<std::uint64_t> cyclesTrap, offset;

    // Per (thread, lane) cursors, [threads * pad], lane-major per
    // thread. NS keeps `top` unwrapped (the run kernels add/subtract
    // k without a lane-wise modulo; writeback wraps once).
    AlignedVec<std::int32_t> top, res;

    void
    init(std::size_t nlanes, int nthreads)
    {
        lanes = nlanes;
        pad = (nlanes + kSoaLaneStep - 1) / kSoaLaneStep *
              kSoaLaneStep;
        threads = nthreads;
        numWin.resize(pad);
        nsCap.resize(pad);
        ovfCost1.resize(pad);
        unfCost.resize(pad);
        ovfTraps.resize(pad);
        ovfSpilled.resize(pad);
        unfTraps.resize(pad);
        unfRestored.resize(pad);
        cyclesTrap.resize(pad);
        offset.resize(pad);
        const std::size_t per_thread =
            static_cast<std::size_t>(nthreads) * pad;
        top.resize(per_thread);
        res.resize(per_thread);
        for (std::size_t l = nlanes; l < pad; ++l)
            nsCap[l] = 1; // benign saturation for padding lanes
    }

    std::int32_t *
    topOf(ThreadId tid)
    {
        return top.data() + static_cast<std::size_t>(tid) * pad;
    }
    std::int32_t *
    resOf(ThreadId tid)
    {
        return res.data() + static_cast<std::size_t>(tid) * pad;
    }
    const std::int32_t *
    resOf(ThreadId tid) const
    {
        return res.data() + static_cast<std::size_t>(tid) * pad;
    }
};

/**
 * The tier-selected kernel set. One indirect call per *run* (not per
 * op), resolved once per finish() — dispatch cost is noise against
 * the folded work.
 */
struct LaneKernels
{
    /** k consecutive NS saves by @p tid across all lanes. */
    void (*nsSaveRun)(LaneSoA &s, ThreadId tid, int k);
    /** k consecutive NS restores (depth > 0 throughout). */
    void (*nsRestoreRun)(LaneSoA &s, ThreadId tid, int k);
    /**
     * True when any live lane's residency of @p tid disagrees with
     * the recorded leader answer (batch divergence).
     */
    bool (*wakeMismatch)(const LaneSoA &s, ThreadId tid,
                         int expected);
};

namespace detail_soa {

// ---------------------------------------------------------------
// Portable flavor: plain loops over the padded arrays. The integer
// recurrences are the closed forms of win/scheme.h verbatim; the
// SSE2/AVX2 flavors below compute exactly these expressions.
// ---------------------------------------------------------------

inline void
nsSaveRunPortable(LaneSoA &s, ThreadId tid, int k)
{
    std::int32_t *res = s.resOf(tid);
    std::int32_t *top = s.topOf(tid);
    for (std::size_t l = 0; l < s.pad; ++l) {
        const std::int32_t r = res[l];
        const std::int32_t grown = r + k;
        const std::int32_t cap = s.nsCap[l];
        const std::int32_t r2 = grown < cap ? grown : cap;
        const std::uint64_t traps =
            static_cast<std::uint64_t>(k - (r2 - r));
        res[l] = r2;
        top[l] -= k;
        s.ovfTraps[l] += traps;
        s.ovfSpilled[l] += traps;
        const std::uint64_t c = traps * s.ovfCost1[l];
        s.cyclesTrap[l] += c;
        s.offset[l] += c;
    }
}

inline void
nsRestoreRunPortable(LaneSoA &s, ThreadId tid, int k)
{
    std::int32_t *res = s.resOf(tid);
    std::int32_t *top = s.topOf(tid);
    for (std::size_t l = 0; l < s.pad; ++l) {
        const std::int32_t r = res[l];
        const std::int32_t shrunk = r - k;
        const std::int32_t r2 = shrunk > 1 ? shrunk : 1;
        const std::uint64_t traps =
            static_cast<std::uint64_t>(k - (r - r2));
        res[l] = r2;
        top[l] += k;
        s.unfTraps[l] += traps;
        s.unfRestored[l] += traps;
        const std::uint64_t c = traps * s.unfCost[l];
        s.cyclesTrap[l] += c;
        s.offset[l] += c;
    }
}

inline bool
wakeMismatchPortable(const LaneSoA &s, ThreadId tid, int expected)
{
    const std::int32_t *res = s.resOf(tid);
    for (std::size_t l = 0; l < s.lanes; ++l)
        if ((res[l] > 0 ? 1 : 0) != expected)
            return true;
    return false;
}

inline constexpr LaneKernels kPortableKernels = {
    &nsSaveRunPortable,
    &nsRestoreRunPortable,
    &wakeMismatchPortable,
};

#if defined(__x86_64__)

// ---------------------------------------------------------------
// SSE2 flavor: 4 × i32 per step. SSE2 has no pminsd/pmaxsd (those
// are SSE4.1), so min/max are compare-and-blend; the u64 tally
// accumulation widens each 4-lane trap vector into two 2 × u64
// halves via unpacks against zero.
// ---------------------------------------------------------------

inline __m128i
minEpi32Sse2(__m128i a, __m128i b)
{
    const __m128i a_gt = _mm_cmpgt_epi32(a, b);
    return _mm_or_si128(_mm_and_si128(a_gt, b),
                        _mm_andnot_si128(a_gt, a));
}

inline __m128i
maxEpi32Sse2(__m128i a, __m128i b)
{
    const __m128i a_gt = _mm_cmpgt_epi32(a, b);
    return _mm_or_si128(_mm_and_si128(a_gt, a),
                        _mm_andnot_si128(a_gt, b));
}

/** tally[l] += traps[l] * cost[l] and count[l] += traps[l], over one
 *  2 × u64 half; traps and costs fit 32 bits so pmuludq is exact. */
inline void
foldTrapHalfSse2(__m128i traps64, std::uint64_t *count_a,
                 std::uint64_t *count_b, const std::uint64_t *cost,
                 std::uint64_t *cycles, std::uint64_t *offset)
{
    __m128i *ca = reinterpret_cast<__m128i *>(count_a);
    __m128i *cb = reinterpret_cast<__m128i *>(count_b);
    _mm_store_si128(ca,
                    _mm_add_epi64(_mm_load_si128(ca), traps64));
    _mm_store_si128(cb,
                    _mm_add_epi64(_mm_load_si128(cb), traps64));
    const __m128i c64 = _mm_mul_epu32(
        traps64,
        _mm_load_si128(reinterpret_cast<const __m128i *>(cost)));
    __m128i *cy = reinterpret_cast<__m128i *>(cycles);
    __m128i *of = reinterpret_cast<__m128i *>(offset);
    _mm_store_si128(cy, _mm_add_epi64(_mm_load_si128(cy), c64));
    _mm_store_si128(of, _mm_add_epi64(_mm_load_si128(of), c64));
}

template <bool Save>
inline void
runFoldSse2(LaneSoA &s, ThreadId tid, int k)
{
    std::int32_t *res = s.resOf(tid);
    std::int32_t *top = s.topOf(tid);
    const __m128i kv = _mm_set1_epi32(k);
    const __m128i one = _mm_set1_epi32(1);
    const __m128i zero = _mm_setzero_si128();
    for (std::size_t l = 0; l < s.pad; l += 4) {
        const __m128i r = _mm_load_si128(
            reinterpret_cast<const __m128i *>(res + l));
        __m128i r2, traps;
        if constexpr (Save) {
            const __m128i cap = _mm_load_si128(
                reinterpret_cast<const __m128i *>(s.nsCap.data() +
                                                  l));
            r2 = minEpi32Sse2(_mm_add_epi32(r, kv), cap);
            traps = _mm_sub_epi32(kv, _mm_sub_epi32(r2, r));
        } else {
            r2 = maxEpi32Sse2(_mm_sub_epi32(r, kv), one);
            traps = _mm_sub_epi32(kv, _mm_sub_epi32(r, r2));
        }
        _mm_store_si128(reinterpret_cast<__m128i *>(res + l), r2);
        {
            __m128i *tp = reinterpret_cast<__m128i *>(top + l);
            const __m128i t = _mm_load_si128(tp);
            _mm_store_si128(tp, Save ? _mm_sub_epi32(t, kv)
                                     : _mm_add_epi32(t, kv));
        }
        const __m128i t_lo = _mm_unpacklo_epi32(traps, zero);
        const __m128i t_hi = _mm_unpackhi_epi32(traps, zero);
        std::uint64_t *count_a =
            (Save ? s.ovfTraps : s.unfTraps).data() + l;
        std::uint64_t *count_b =
            (Save ? s.ovfSpilled : s.unfRestored).data() + l;
        const std::uint64_t *cost =
            (Save ? s.ovfCost1 : s.unfCost).data() + l;
        foldTrapHalfSse2(t_lo, count_a, count_b, cost,
                         s.cyclesTrap.data() + l,
                         s.offset.data() + l);
        foldTrapHalfSse2(t_hi, count_a + 2, count_b + 2, cost + 2,
                         s.cyclesTrap.data() + l + 2,
                         s.offset.data() + l + 2);
    }
}

inline void
nsSaveRunSse2(LaneSoA &s, ThreadId tid, int k)
{
    runFoldSse2<true>(s, tid, k);
}

inline void
nsRestoreRunSse2(LaneSoA &s, ThreadId tid, int k)
{
    runFoldSse2<false>(s, tid, k);
}

inline bool
wakeMismatchSse2(const LaneSoA &s, ThreadId tid, int expected)
{
    // Checked chunk-by-chunk, NOT by accumulating one shift-composed
    // mask: batch width is bounded by kMaxReplayBatch (1024), far past
    // the 32 lanes a single mask word could carry. The final partial
    // chunk masks the padding lanes out of the vote.
    const std::int32_t *res = s.resOf(tid);
    const __m128i zero = _mm_setzero_si128();
    const unsigned want = expected ? 0xfu : 0u;
    for (std::size_t l = 0; l < s.lanes; l += 4) {
        const __m128i r = _mm_load_si128(
            reinterpret_cast<const __m128i *>(res + l));
        const unsigned m = static_cast<unsigned>(_mm_movemask_ps(
            _mm_castsi128_ps(_mm_cmpgt_epi32(r, zero))));
        const std::size_t rem = s.lanes - l;
        const unsigned live = rem >= 4 ? 0xfu : ((1u << rem) - 1u);
        if (((m ^ want) & live) != 0)
            return true;
    }
    return false;
}

inline constexpr LaneKernels kSse2Kernels = {
    &nsSaveRunSse2,
    &nsRestoreRunSse2,
    &wakeMismatchSse2,
};

// ---------------------------------------------------------------
// AVX2 flavor: 8 × i32 per step, native min/max, cvtepu32 widening.
// target("avx2") keeps the binary portable — laneKernels() only
// hands these out when the CPU probe says so (win/simd.h).
// ---------------------------------------------------------------

__attribute__((target("avx2"))) inline void
foldTrapHalfAvx2(__m256i traps64, std::uint64_t *count_a,
                 std::uint64_t *count_b, const std::uint64_t *cost,
                 std::uint64_t *cycles, std::uint64_t *offset)
{
    __m256i *ca = reinterpret_cast<__m256i *>(count_a);
    __m256i *cb = reinterpret_cast<__m256i *>(count_b);
    _mm256_store_si256(
        ca, _mm256_add_epi64(_mm256_load_si256(ca), traps64));
    _mm256_store_si256(
        cb, _mm256_add_epi64(_mm256_load_si256(cb), traps64));
    const __m256i c64 = _mm256_mul_epu32(
        traps64,
        _mm256_load_si256(reinterpret_cast<const __m256i *>(cost)));
    __m256i *cy = reinterpret_cast<__m256i *>(cycles);
    __m256i *of = reinterpret_cast<__m256i *>(offset);
    _mm256_store_si256(
        cy, _mm256_add_epi64(_mm256_load_si256(cy), c64));
    _mm256_store_si256(
        of, _mm256_add_epi64(_mm256_load_si256(of), c64));
}

template <bool Save>
__attribute__((target("avx2"))) inline void
runFoldAvx2(LaneSoA &s, ThreadId tid, int k)
{
    std::int32_t *res = s.resOf(tid);
    std::int32_t *top = s.topOf(tid);
    const __m256i kv = _mm256_set1_epi32(k);
    const __m256i one = _mm256_set1_epi32(1);
    for (std::size_t l = 0; l < s.pad; l += 8) {
        const __m256i r = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(res + l));
        __m256i r2, traps;
        if constexpr (Save) {
            const __m256i cap = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(s.nsCap.data() +
                                                  l));
            r2 = _mm256_min_epi32(_mm256_add_epi32(r, kv), cap);
            traps = _mm256_sub_epi32(kv, _mm256_sub_epi32(r2, r));
        } else {
            r2 = _mm256_max_epi32(_mm256_sub_epi32(r, kv), one);
            traps = _mm256_sub_epi32(kv, _mm256_sub_epi32(r, r2));
        }
        _mm256_store_si256(reinterpret_cast<__m256i *>(res + l),
                           r2);
        {
            __m256i *tp = reinterpret_cast<__m256i *>(top + l);
            const __m256i t = _mm256_load_si256(tp);
            _mm256_store_si256(tp, Save ? _mm256_sub_epi32(t, kv)
                                        : _mm256_add_epi32(t, kv));
        }
        const __m256i t_lo = _mm256_cvtepu32_epi64(
            _mm256_castsi256_si128(traps));
        const __m256i t_hi = _mm256_cvtepu32_epi64(
            _mm256_extracti128_si256(traps, 1));
        std::uint64_t *count_a =
            (Save ? s.ovfTraps : s.unfTraps).data() + l;
        std::uint64_t *count_b =
            (Save ? s.ovfSpilled : s.unfRestored).data() + l;
        const std::uint64_t *cost =
            (Save ? s.ovfCost1 : s.unfCost).data() + l;
        foldTrapHalfAvx2(t_lo, count_a, count_b, cost,
                         s.cyclesTrap.data() + l,
                         s.offset.data() + l);
        foldTrapHalfAvx2(t_hi, count_a + 4, count_b + 4, cost + 4,
                         s.cyclesTrap.data() + l + 4,
                         s.offset.data() + l + 4);
    }
}

__attribute__((target("avx2"))) inline void
nsSaveRunAvx2(LaneSoA &s, ThreadId tid, int k)
{
    runFoldAvx2<true>(s, tid, k);
}

__attribute__((target("avx2"))) inline void
nsRestoreRunAvx2(LaneSoA &s, ThreadId tid, int k)
{
    runFoldAvx2<false>(s, tid, k);
}

__attribute__((target("avx2"))) inline bool
wakeMismatchAvx2(const LaneSoA &s, ThreadId tid, int expected)
{
    // Chunk-wise for the same reason as the SSE2 flavor: lane counts
    // can exceed any single mask word, so each 8-lane movemask is
    // compared in place, with the tail chunk's padding lanes masked.
    const std::int32_t *res = s.resOf(tid);
    const __m256i zero = _mm256_setzero_si256();
    const unsigned want = expected ? 0xffu : 0u;
    for (std::size_t l = 0; l < s.lanes; l += 8) {
        const __m256i r = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(res + l));
        const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(r, zero))));
        const std::size_t rem = s.lanes - l;
        const unsigned live = rem >= 8 ? 0xffu : ((1u << rem) - 1u);
        if (((m ^ want) & live) != 0)
            return true;
    }
    return false;
}

inline constexpr LaneKernels kAvx2Kernels = {
    &nsSaveRunAvx2,
    &nsRestoreRunAvx2,
    &wakeMismatchAvx2,
};

#endif // __x86_64__

} // namespace detail_soa

/**
 * Kernel set for @p tier. SimdTier::Scalar callers never reach the
 * SoA pass (engine_batch.h dispatches them to the per-lane pass),
 * so the request here is only ever Sse2 or Avx2; on non-x86 both
 * resolve to the portable flavor.
 */
inline const LaneKernels &
laneKernels(SimdTier tier)
{
#if defined(__x86_64__)
    if (tier == SimdTier::Avx2)
        return detail_soa::kAvx2Kernels;
    if (tier == SimdTier::Sse2)
        return detail_soa::kSse2Kernels;
#else
    (void)tier;
#endif
    return detail_soa::kPortableKernels;
}

} // namespace crw

#endif // CRW_WIN_LANE_SOA_H_
