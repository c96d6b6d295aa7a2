#ifndef LSQCA_ISA_PROGRAM_H
#define LSQCA_ISA_PROGRAM_H

/**
 * @file
 * Container for translated LSQCA programs.
 *
 * A Program is portable object code: it references variables, CR slots,
 * and classical values but never concrete cell positions, so the same
 * Program runs on any point-/line-/hybrid-SAM instance (the paper's
 * program-portability contribution, Sec. VII-B).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/instruction.h"

namespace lsqca {

/** A named contiguous variable range (mirrors circuit registers). */
struct VariableRegister
{
    std::string name;
    std::int32_t first = 0;
    std::int32_t size = 0;
};

/**
 * Memoized per-instruction prefix maxima over a Program. The machine
 * sizes its register-slot and value timelines from them for the
 * simulated prefix; without the memo every sweep job over a shared
 * program would rescan the stream to find those sizes.
 */
struct StreamIndex
{
    /** maxSlotPrefix[i] = largest CR slot referenced in [0, i), or -1. */
    std::vector<std::int32_t> maxSlotPrefix;
    /** maxValPrefix[i] = largest value slot referenced in [0, i), or -1. */
    std::vector<std::int32_t> maxValPrefix;
};

/** An LSQCA instruction sequence plus symbol-table metadata. */
class Program
{
  public:
    Program() = default;

    /** Create a program over @p num_variables memory variables. */
    explicit Program(std::int32_t num_variables);

    std::int32_t numVariables() const { return numVariables_; }
    std::int32_t numValues() const { return numValues_; }
    const std::vector<Instruction> &instructions() const { return code_; }
    const std::vector<VariableRegister> &registers() const { return regs_; }

    /** Declare a named variable register (metadata only). */
    void addRegister(const std::string &name, std::int32_t first,
                     std::int32_t size);

    /** Register index owning variable @p m; -1 if anonymous. */
    std::int32_t registerOf(std::int32_t m) const;

    /** Allocate a fresh classical value slot. */
    std::int32_t newValue() { return numValues_++; }

    /** Append a validated instruction. */
    void append(const Instruction &inst);

    std::int64_t size() const
    {
        return static_cast<std::int64_t>(code_.size());
    }

    /**
     * A copy of the first @p n instructions (all of them when @p n <= 0
     * or n >= size(), as SimOptions::maxInstructions reads it) over the
     * same variables, value slots and registers: what a job with that
     * instruction prefix simulates.
     */
    Program prefix(std::int64_t n) const;

    /**
     * Number of instructions counted in CPI denominators: logical
     * commands excluding LD/ST traffic, so CPI ratios between
     * architectures equal execution-time ratios (see DESIGN.md §4.11).
     */
    std::int64_t countedInstructions() const;

    /** Number of PM instructions == magic states consumed. */
    std::int64_t magicCount() const;

    /**
     * Per-variable static reference counts over memory operands.
     * Cached after the first call: every hybrid sweep job over a
     * shared program asks for the same counts, and the O(program)
     * scan dominated fig14's wall-clock when repeated per job.
     * Thread-safe — concurrent first calls may each compute, but they
     * store identical vectors.
     */
    std::vector<std::int64_t> referenceCounts() const;

    /**
     * Prefix-maxima index over the stream, memoized with the
     * same contract as referenceCounts(): computed on first call,
     * invalidated by append(), safe under concurrent readers.
     */
    std::shared_ptr<const StreamIndex> streamIndex() const;

    /** Multi-line disassembly (capped at @p max_lines, 0 = all). */
    std::string disassemble(std::size_t max_lines = 0) const;

  private:
    std::int32_t numVariables_ = 0;
    std::int32_t numValues_ = 0;
    std::vector<Instruction> code_;
    std::vector<VariableRegister> regs_;
    /** referenceCounts() memo; reset by append(). */
    mutable std::shared_ptr<const std::vector<std::int64_t>> refCounts_;
    /** streamIndex() memo; reset by append(). */
    mutable std::shared_ptr<const StreamIndex> streamIndex_;
};

} // namespace lsqca

#endif // LSQCA_ISA_PROGRAM_H
