/**
 * @file
 * The microtrace random call-depth walk (bench/exhibit_microtrace.cc),
 * exposed so the differential suite can pin it against a walk driven
 * through the WindowEngine members (tests/bench/test_microtrace.cc).
 */

#ifndef CRW_BENCH_MICROTRACE_H_
#define CRW_BENCH_MICROTRACE_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace crw {

class WindowEngine;

namespace bench {

/**
 * One walk: @p threads run round-robin for @p quanta quanta of
 * @p stepsPerQuantum steps. Each step is a save or a restore (depth
 * walks +-1 within [1, maxDepth], a fair coin from a Rng seeded with
 * @p seed deciding in between) followed by a kStepCharge charge.
 */
struct WalkShape
{
    int threads = 4;
    int maxDepth = 4;
    int stepsPerQuantum = 200;
    int quanta = 3000;
    std::uint64_t seed = 99;
};

/** Compute cycles charged after every step of a walk. */
inline constexpr Cycles kStepCharge = 20;

/**
 * Quanta per BatchedEngineView in runWalk. One view per chunk keeps
 * the recorded op stream (8 bytes per op, ~200 ops per quantum) at
 * ~40 KB per worker instead of the ~5 MB of a whole 3000-quantum walk;
 * chunks of 5 to 3000 quanta ran the walks equally fast.
 */
inline constexpr int kWalkChunkQuanta = 25;

/**
 * Drive @p walk through @p lanes engines in lockstep: engines[0]
 * leads, walking the Rng and its own events once, and the other lanes
 * replay the recorded op stream at the end of every @p chunk_quanta
 * quanta (BatchedEngineView). A walk's choices read only the call
 * depth, which every lane shares, so each engine ends exactly where a
 * walk of it alone would. The engines must share one scheme, be
 * freshly constructed with no threads registered, and carry no
 * observer or checkInvariants; runWalk registers the walk's threads.
 */
void runWalk(const WalkShape &walk, WindowEngine *const *engines,
             std::size_t lanes, int chunk_quanta = kWalkChunkQuanta);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_MICROTRACE_H_
