#ifndef LSQCA_SIM_SIMULATOR_H
#define LSQCA_SIM_SIMULATOR_H

/**
 * @file
 * Code-beat-accurate LSQCA simulator (Sec. VI-A).
 *
 * Execution model: instructions issue in program order with dataflow
 * timing — each starts at the latest of its operand ready times and
 * resource availabilities, so independent instructions overlap freely
 * (the paper's "executed in parallel if their instruction targets do not
 * overlap") while CR register slots, per-bank scan cells, the bounded
 * magic-state buffer, and SK control dependencies serialize exactly
 * where the architecture says they must.
 *
 * Variable-latency instructions (LD/ST/in-memory forms/CX/CZ) are costed
 * by the bank models from live grid state, so locality-aware stores and
 * the access locality of programs shape the latencies organically.
 *
 * Telemetry is pluggable (sim/observer.h, docs/OBSERVERS.md): the hot
 * loop emits typed events to the observers listed in SimOptions, and
 * compiles to the event-free fast path when none are attached.
 */

#include <vector>

#include "arch/config.h"
#include "isa/program.h"
#include "sim/observer.h"
#include "sim/result.h"

namespace lsqca {

/** Per-run simulation options. */
struct SimOptions
{
    ArchConfig arch;

    /** Simulate only the first N instructions (0 = whole program). */
    std::int64_t maxInstructions = 0;

    /**
     * Record memory-reference and magic-demand traces (Fig. 8) into
     * SimResult::trace / magicTimes / motionSamples. A thin shim over
     * collectors::TraceCollector: simulate() attaches one internally
     * and moves its vectors into the result.
     */
    bool recordTrace = false;

    /**
     * Collect the per-opcode latency breakdown (SimResult::breakdown)
     * via an internal collectors::StallAttribution. Sweeps with this
     * set emit `lsqca-bench-v2` BENCH documents.
     */
    bool recordBreakdown = false;

    /**
     * Telemetry sinks for this run (borrowed; must outlive the
     * simulate() call). Runtime-only: never serialized, ignored by
     * api::toJson(SimOptions). Events arrive in deterministic program
     * order regardless of sweep worker count.
     */
    std::vector<SimObserver *> observers;
};

/**
 * Run @p program on the configured machine and return timing, CPI,
 * density, and breakdowns. Deterministic: identical inputs give
 * identical results (and identical observer event streams).
 */
SimResult simulate(const Program &program, const SimOptions &options);

/**
 * Options for the conventional 1/2-density baseline of Sec. VI-A
 * (unit-time access, no path conflicts, unlimited ILP).
 */
struct ConventionalOptions
{
    /** MSF count. */
    std::int32_t factories = 1;

    /** Simulate only the first N instructions (0 = whole program). */
    std::int64_t maxInstructions = 0;

    /** As SimOptions::recordTrace. */
    bool recordTrace = false;

    /** As SimOptions::recordBreakdown. */
    bool recordBreakdown = false;

    /** As SimOptions::observers. */
    std::vector<SimObserver *> observers;
};

/** Convenience wrapper: simulate() on the conventional baseline. */
SimResult simulateConventional(const Program &program,
                               const ConventionalOptions &options = {});

} // namespace lsqca

#endif // LSQCA_SIM_SIMULATOR_H
