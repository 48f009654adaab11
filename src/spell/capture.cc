#include "spell/capture.h"

namespace crw {

RunMetrics
runSpellLive(SchemeKind scheme, int windows, SchedPolicy policy,
             const SpellWorkload &workload, const SpellConfig &config,
             TraceRecorder *recorder)
{
    RuntimeConfig rc;
    rc.engine.numWindows = windows;
    rc.engine.scheme = scheme;
    rc.engine.checkInvariants = false;
    rc.policy = policy;
    Runtime rt(rc);
    if (recorder)
        rt.setTraceSink(recorder);

    BehaviorTracker tracker(64);
    rt.engine().setObserver(&tracker);

    SpellApp app(rt, workload, config);
    rt.run();
    tracker.finish(rt.now());

    return collectRunMetrics(rt.engine(), tracker,
                             rt.scheduler().slackness(), policy,
                             SpellApp::kNumThreads,
                             app.report().misspelled.size());
}

std::string
spellTraceKey(const SpellConfig &config)
{
    std::string key = "m";
    key += std::to_string(config.m);
    key += "-n";
    key += std::to_string(config.n);
    key += "-d";
    key += std::to_string(config.dictBytes);
    key += "-v";
    key += std::to_string(config.vocabularyWords);
    return key;
}

EventTrace
captureSpellTrace(const SpellWorkload &workload,
                  const SpellConfig &config)
{
    TraceRecorder recorder(spellTraceKey(config), config.seed,
                           config.corpusBytes);

    RuntimeConfig rc;
    // The cheapest engine to model: no window traps, no sharing.
    rc.engine.numWindows = 8;
    rc.engine.scheme = SchemeKind::Infinite;
    rc.engine.checkInvariants = false;
    rc.policy = SchedPolicy::Fifo;
    Runtime rt(rc);
    rt.setTraceSink(&recorder);
    SpellApp app(rt, workload, config);
    rt.run();

    return recorder.take(app.report().misspelled.size(),
                         app.report().wordsFromDelatex);
}

} // namespace crw
