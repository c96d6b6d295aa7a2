#ifndef LSQCA_SIM_RESULT_H
#define LSQCA_SIM_RESULT_H

/**
 * @file
 * Simulation outputs: execution time, CPI, density, per-opcode
 * breakdowns, and (optionally) the memory-reference trace that feeds the
 * Fig. 8 analysis.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "arch/floorplan.h"
#include "isa/instruction.h"
#include "sim/observer.h"

namespace lsqca {

/** One memory reference: instruction start time x variable. */
struct TraceSample
{
    std::int64_t time = 0;
    std::int32_t variable = -1;
};

/** Outcome of one code-beat-accurate simulation. */
struct SimResult
{
    /** Total execution time in code beats. */
    std::int64_t execBeats = 0;

    /** Instructions actually simulated (≤ program size if truncated). */
    std::int64_t instructionsSimulated = 0;

    /**
     * CPI denominator: simulated instructions excluding LD/ST traffic
     * (DESIGN.md §4.11), so CPI ratios equal execution-time ratios.
     */
    std::int64_t countedInstructions = 0;

    /** Code beats per (counted) instruction. */
    double cpi = 0.0;

    /** Magic states consumed / beats stalled waiting for them. */
    std::int64_t magicConsumed = 0;
    std::int64_t magicStallBeats = 0;

    /** Aggregate beats spent in memory motion (seek/pick/align/ld/st). */
    std::int64_t memoryBeats = 0;

    /** Cell accounting and density for the simulated configuration. */
    FloorplanStats floorplan;

    /** Per-opcode instruction counts. */
    std::array<std::int64_t, kNumOpcodes> opcodeCount{};

    /** Per-opcode occupied beats (duration sums, not critical path). */
    std::array<std::int64_t, kNumOpcodes> opcodeBeats{};

    /** Memory reference samples (only when SimOptions::recordTrace). */
    std::vector<TraceSample> trace;

    /** PM issue times (magic-state demand timeline; with recordTrace). */
    std::vector<std::int64_t> magicTimes;

    /**
     * Per-instruction memory-motion latencies (beats of seek / pick /
     * align / load / store work), one sample per instruction that moved
     * anything (with recordTrace). This is the empirical shape of the
     * "variable latency" the LSQCA ISA exposes.
     */
    std::vector<std::int64_t> motionSamples;

    /**
     * Structured per-opcode latency breakdown (only with
     * SimOptions::recordBreakdown): one entry per opcode that appears
     * in the simulated prefix, in opcode order, with its beats split
     * into compute vs. each memory-motion component vs. magic stall.
     * Serialized by api::toJson / api::breakdownFromJson and carried
     * by `lsqca-bench-v2` BENCH entries.
     */
    std::vector<OpcodeSplit> breakdown;

    double
    density() const
    {
        return floorplan.density();
    }
};

} // namespace lsqca

#endif // LSQCA_SIM_RESULT_H
