#include "sim/simulator.h"

#include <vector>

#include "common/error.h"
#include "sim/collectors/stall_attribution.h"
#include "sim/collectors/trace_collector.h"
#include "sim/machine.h"

namespace lsqca {
namespace {

template <SamKind KIND>
SimResult
runKind(const Program &program, const SimOptions &options,
        const std::vector<SimObserver *> &observers)
{
    if (observers.empty())
        return detail::Machine<KIND, false>(program, options)
            .run(observers);
    return detail::Machine<KIND, true>(program, options).run(observers);
}

SimResult
dispatch(const Program &program, const SimOptions &options,
         const std::vector<SimObserver *> &observers)
{
    switch (options.arch.sam) {
      case SamKind::Point:
        return runKind<SamKind::Point>(program, options, observers);
      case SamKind::Line:
        return runKind<SamKind::Line>(program, options, observers);
      case SamKind::Conventional:
        return runKind<SamKind::Conventional>(program, options,
                                              observers);
    }
    throw InternalError("unhandled SAM kind");
}

/** Deliver the SimEndEvent: always last, on the finished result. */
void
emitSimEnd(const std::vector<SimObserver *> &observers,
           const SimResult &result)
{
    SimEndEvent end;
    end.result = &result;
    for (SimObserver *observer : observers)
        observer->onSimEnd(end);
}

} // namespace

SimResult
simulate(const Program &program, const SimOptions &options)
{
    for (const SimObserver *observer : options.observers)
        LSQCA_REQUIRE(observer != nullptr,
                      "SimOptions::observers must not contain nullptr");
    if (!options.recordTrace && !options.recordBreakdown) {
        if (options.observers.empty())
            return dispatch(program, options, options.observers);
        SimResult result =
            dispatch(program, options, options.observers);
        emitSimEnd(options.observers, result);
        return result;
    }

    // The recordTrace / recordBreakdown flags are thin shims over the
    // built-in collectors: attach one internally, then move its output
    // into the result, so the legacy surface and the observer API can
    // never drift. Constructed only on this branch — the plain path
    // must not pay for zero-initializing the collectors' tables. The
    // SimEndEvent fires only after the shims have landed, so every
    // observer's onSimEnd sees the complete result (trace vectors and
    // breakdown included).
    collectors::TraceCollector trace_shim;
    collectors::StallAttribution breakdown_shim;
    std::vector<SimObserver *> observers = options.observers;
    if (options.recordTrace)
        observers.push_back(&trace_shim);
    if (options.recordBreakdown)
        observers.push_back(&breakdown_shim);

    SimResult result = dispatch(program, options, observers);
    if (options.recordTrace)
        trace_shim.moveInto(result);
    if (options.recordBreakdown)
        result.breakdown = breakdown_shim.rows();
    emitSimEnd(observers, result);
    return result;
}

SimResult
simulateConventional(const Program &program,
                     const ConventionalOptions &options)
{
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.arch.factories = options.factories;
    opts.maxInstructions = options.maxInstructions;
    opts.recordTrace = options.recordTrace;
    opts.recordBreakdown = options.recordBreakdown;
    opts.observers = options.observers;
    return simulate(program, opts);
}

} // namespace lsqca
