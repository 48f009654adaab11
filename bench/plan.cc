#include "bench/plan.h"

#include <algorithm>

#include "common/byteio.h"
#include "spell/capture.h"

namespace crw {
namespace bench {

BehaviorId
BehaviorId::spell(ConcurrencyLevel conc, GranularityLevel gran)
{
    BehaviorId b;
    b.kind = Kind::Spell;
    b.conc = conc;
    b.gran = gran;
    return b;
}

BehaviorId
BehaviorId::fromSynth(const SynthSpec &spec)
{
    BehaviorId b;
    b.kind = Kind::Synth;
    b.synth = spec;
    return b;
}

std::string
BehaviorId::key() const
{
    return kind == Kind::Spell
               ? spellTraceKey(behaviorConfig(conc, gran))
               : synthTraceKey(synth);
}

std::uint64_t
BehaviorId::seed() const
{
    return kind == Kind::Spell ? behaviorConfig(conc, gran).seed
                               : synth.seed;
}

PlanPoint
makePlanPoint(const BehaviorId &behavior, SchemeKind scheme,
              int windows, SchedPolicy policy)
{
    PlanPoint p;
    p.behavior = behavior;
    p.engine.scheme = scheme;
    p.engine.numWindows = windows;
    p.policy = policy;
    return p;
}

std::string
pointConfigKey(const PlanPoint &point)
{
    return point.behavior.key() + "|" +
           engineConfigKey(point.engine) + "|" +
           policyName(point.policy);
}

std::string
pointBatchKey(const PlanPoint &point)
{
    return point.behavior.key() + "|" +
           schemeName(point.engine.scheme) +
           "|cm=" + costModelKey(point.engine.cost) + "|" +
           policyName(point.policy);
}

void
ExperimentPlan::add(const PlanPoint &point)
{
    if (keys_.insert(pointConfigKey(point)).second)
        points_.push_back(point);
}

void
ExperimentPlan::addSweep(const BehaviorId &behavior,
                         SchedPolicy policy,
                         const std::vector<SchemeKind> &schemes,
                         const std::vector<int> &windows)
{
    for (const SchemeKind scheme : schemes)
        for (const int w : windows)
            add(makePlanPoint(behavior, scheme, w, policy));
}

std::string
ExperimentPlan::digest() const
{
    // keys_ is already sorted (std::set); hash each key plus a
    // separator so concatenation ambiguity cannot collide two plans.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string &key : keys_) {
        h = fnv1a64(key, h);
        h = (h ^ static_cast<std::uint64_t>('\n')) *
            1099511628211ull;
    }
    static const char *kHex = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
        h >>= 4;
    }
    return out;
}

} // namespace bench
} // namespace crw
