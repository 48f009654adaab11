#include "win/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace crw {
namespace {

/** -1 = no override; else the pinned tier. */
std::atomic<int> g_override{-1};

SimdTier
probeCpuMax()
{
#if defined(__x86_64__) || defined(_M_X64)
    // x86-64 baseline guarantees SSE2; AVX2 is probed at runtime so
    // one binary dispatches correctly on every host.
    if (__builtin_cpu_supports("avx2"))
        return SimdTier::Avx2;
    return SimdTier::Sse2;
#else
    // Non-x86: the named tiers select the portable SoA kernels; the
    // widest "supported" tier is then simply the SoA pass itself.
    return SimdTier::Avx2;
#endif
}

} // namespace

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
      case SimdTier::Scalar:
        return "scalar";
      case SimdTier::Sse2:
        return "sse2";
      case SimdTier::Avx2:
        return "avx2";
    }
    return "?";
}

SimdTier
cpuMaxSimdTier()
{
    static const SimdTier max = probeCpuMax();
    return max;
}

SimdTier
parseSimdTier(const char *text, SimdTier cpu_max)
{
    if (!text || !*text || std::strcmp(text, "auto") == 0)
        return cpu_max;
    if (std::strcmp(text, "scalar") == 0)
        return SimdTier::Scalar;
    SimdTier asked;
    if (std::strcmp(text, "sse2") == 0)
        asked = SimdTier::Sse2;
    else if (std::strcmp(text, "avx2") == 0)
        asked = SimdTier::Avx2;
    else {
        // Same convention as CRW_REPLAY_BATCH: junk never silently
        // changes behavior — warn and run as if unset.
        std::cerr << "warning: invalid CRW_SIMD \"" << text
                  << "\"; using auto (" << simdTierName(cpu_max)
                  << ")\n";
        return cpu_max;
    }
    if (asked > cpu_max) {
        std::cerr << "warning: CRW_SIMD=" << simdTierName(asked)
                  << " not supported by this CPU; clamping to "
                  << simdTierName(cpu_max) << '\n';
        return cpu_max;
    }
    return asked;
}

SimdTier
effectiveSimdTier()
{
    const int ov = g_override.load(std::memory_order_relaxed);
    if (ov >= 0)
        return static_cast<SimdTier>(ov);
    // Parsed once: replay workers hit this per batch, and the env
    // cannot change mid-process without an explicit override anyway.
    static const SimdTier env_tier =
        parseSimdTier(std::getenv("CRW_SIMD"), cpuMaxSimdTier());
    return env_tier;
}

void
setSimdTierOverride(SimdTier tier)
{
    if (tier > cpuMaxSimdTier())
        tier = cpuMaxSimdTier();
    g_override.store(static_cast<int>(tier),
                     std::memory_order_relaxed);
}

void
clearSimdTierOverride()
{
    g_override.store(-1, std::memory_order_relaxed);
}

} // namespace crw
