#ifndef LSQCA_SIM_MACHINE_H
#define LSQCA_SIM_MACHINE_H

/**
 * @file
 * The simulator's machine model, as an internal header.
 *
 * `detail::Machine` is the code-beat timing model itself: bank state,
 * resource timelines and in-order dataflow issue, templated on the
 * floorplan kind and the observer flag. simulator.cpp instantiates it
 * once per (kind, observed) pair behind simulate(); keeping the model
 * in its own header keeps that file to dispatch and the
 * recordTrace/recordBreakdown shims.
 *
 * This header is internal: nothing outside src/sim should include it.
 */

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <tuple>
#include <type_traits>
#include <vector>

#include "arch/line_sam.h"
#include "arch/msf.h"
#include "arch/point_sam.h"
#include "common/error.h"
#include "sim/simulator.h"

namespace lsqca::detail {

/**
 * max over issue-time operands. The exec paths used
 * std::max(initializer_list) here; once the OBSERVE axis doubled the
 * Machine instantiations, GCC's unit-growth budget stopped inlining
 * that overload and every handler paid an out-of-line call per
 * instruction (+50% on the conventional CX handler). A plain variadic
 * always inlines.
 */
inline std::int64_t
maxOf(std::int64_t a, std::int64_t b)
{
    return b > a ? b : a;
}

template <typename... Rest>
inline std::int64_t
maxOf(std::int64_t a, std::int64_t b, Rest... rest)
{
    return maxOf(maxOf(a, b), rest...);
}

/**
 * The machine: bank state + resource timelines + in-order dataflow
 * issue. One instance per simulate() call.
 *
 * Templated on the floorplan kind so the per-instruction bank dispatch
 * (point vs line vs conventional) resolves at compile time: the hot
 * loop runs with no `cfg_.sam` branches, one concrete bank type, and
 * the conventional machine compiles to the pure-timeline fast path.
 *
 * The telemetry layer follows the same discipline: the loop and every
 * exec path are additionally templated on an OBSERVE flag, so the
 * no-observer instantiation carries no event construction, no latency
 * split bookkeeping, and no bank hooks — it compiles to the plain
 * simulator (the `ns_per_instr_null_observer` micro kernel tracks the
 * observed path's cost).
 */
template <SamKind KIND, bool OBSERVE>
class Machine
{
    /** Concrete bank model for this specialization (unused for the
     *  conventional machine, where no variable is SAM-resident). */
    using Bank = std::conditional_t<KIND == SamKind::Line, LineSamBank,
                                    PointSamBank>;

  public:
    Machine(const Program &prog, const SimOptions &opts)
        : prog_(prog), opts_(opts), cfg_(opts.arch),
          magic_(cfg_.factories, cfg_.effectiveBufferCap(),
                 cfg_.lat.msfPeriod, cfg_.lat.magicTransfer,
                 cfg_.warmBuffer, cfg_.instantMagic)
    {
        cfg_.validate();
        LSQCA_ASSERT(cfg_.sam == KIND, "machine/config kind mismatch");
        setupResidency();
        setupBanks();
        // Size the ready timelines by the simulated prefix, not the
        // whole program: slots past the prefix maxima are never read
        // or written, and the memoized StreamIndex replaces what used
        // to be an O(program) scan per Machine — per-job construction
        // cost dominated the fig14 sweeps before this.
        std::int64_t limit = prog.size();
        if (opts.maxInstructions > 0)
            limit = std::min(limit, opts.maxInstructions);
        const auto index = prog.streamIndex();
        const std::size_t li = static_cast<std::size_t>(limit);
        varReady_.assign(static_cast<std::size_t>(prog.numVariables()), 0);
        valReady_.assign(
            static_cast<std::size_t>(index->maxValPrefix[li] + 1), 0);
        const std::int32_t max_slot =
            std::max<std::int32_t>(1, index->maxSlotPrefix[li]);
        slotReady_.assign(static_cast<std::size_t>(max_slot) + 1, 0);
        scanFree_.assign(static_cast<std::size_t>(cfg_.banks), 0);
    }

    // Deliberately not inlined into runKind(): letting GCC merge the
    // observed and unobserved loops into one stack frame measurably
    // hurt the unobserved loop's register allocation (+50% on the
    // conventional CX handler).
    __attribute__((noinline)) SimResult
    run(const std::vector<SimObserver *> &observers)
    {
        SimResult result;
        result.floorplan =
            floorplanStats(cfg_, prog_.numVariables(), numConventional_);
        std::int64_t limit = prog_.size();
        if (opts_.maxInstructions > 0)
            limit = std::min(limit, opts_.maxInstructions);
        if constexpr (OBSERVE)
            beginObservation(observers, limit);
        const Instruction *code = prog_.instructions().data();
        // The per-instruction accumulators live in locals, not in
        // `result`: the caller's return slot escapes, so every bank call
        // would otherwise force them back to memory.
        std::array<std::int64_t, kNumOpcodes> opcodeCount{};
        std::array<std::int64_t, kNumOpcodes> opcodeBeats{};
        std::int64_t memoryBeats = 0;
        std::int64_t execBeats = 0;
        for (std::int64_t i = 0; i < limit; ++i) {
            const Instruction &inst = code[i];
            if constexpr (OBSERVE) {
                split_ = LatencySplit{};
                curIndex_ = i;
                pendingCells_.clear();
            }
            const Step step = execute(inst);
            const auto op_idx = static_cast<std::size_t>(inst.op);
            ++opcodeCount[op_idx];
            opcodeBeats[op_idx] += step.end - step.start;
            memoryBeats += step.memoryBeats;
            execBeats = std::max(execBeats, step.end);
            if constexpr (OBSERVE) {
                InstructionEvent event;
                event.index = i;
                event.inst = inst;
                event.start = step.start;
                event.end = step.end;
                event.split = split_;
                for (SimObserver *observer : observers)
                    observer->onInstruction(event);
                if (inst.op == Opcode::PM) {
                    MagicEvent magic;
                    magic.index = i;
                    magic.request = step.start - split_.magicStall;
                    magic.available = step.start;
                    magic.end = step.end;
                    for (SimObserver *observer : observers)
                        observer->onMagic(magic);
                }
                for (BankCellEvent &cell : pendingCells_) {
                    cell.time = step.start;
                    for (SimObserver *observer : observers)
                        observer->onBankCell(cell);
                }
            }
        }
        result.opcodeCount = opcodeCount;
        result.opcodeBeats = opcodeBeats;
        result.memoryBeats = memoryBeats;
        result.execBeats = execBeats;
        result.instructionsSimulated = limit;
        // Every non-LD/ST instruction enters the CPI denominator.
        result.countedInstructions =
            limit - opcodeCount[static_cast<std::size_t>(Opcode::LD)] -
            opcodeCount[static_cast<std::size_t>(Opcode::ST)];
        result.cpi = result.countedInstructions == 0
                         ? 0.0
                         : static_cast<double>(result.execBeats) /
                               static_cast<double>(
                                   result.countedInstructions);
        result.magicConsumed = magic_.consumed();
        result.magicStallBeats = magic_.stallBeats();
        if constexpr (OBSERVE)
            endObservation();
        return result;
    }

  private:
    // ---- telemetry -----------------------------------------------------

    /** Forwards one bank's grid mutations into pendingCells_. */
    class CellRecorder final : public CellListener
    {
      public:
        CellRecorder(Machine *machine, std::int32_t bank)
            : machine_(machine), bank_(bank)
        {
        }

        void
        onCellOccupied(QubitId q, const Coord &c) override
        {
            machine_->pendingCells_.push_back(
                {machine_->curIndex_, 0, bank_, q, c,
                 CellEventKind::Occupy});
        }

        void
        onCellVacated(QubitId q, const Coord &c) override
        {
            machine_->pendingCells_.push_back(
                {machine_->curIndex_, 0, bank_, q, c,
                 CellEventKind::Vacate});
        }

      private:
        Machine *machine_;
        std::int32_t bank_;
    };

    void
    beginObservation(const std::vector<SimObserver *> &observers,
                     std::int64_t limit)
    {
        SimBeginEvent begin;
        begin.program = &prog_;
        begin.arch = &cfg_;
        begin.instructions = limit;
        if constexpr (KIND != SamKind::Conventional) {
            for (std::size_t b = 0; b < banks_.size(); ++b) {
                BankLayout shape;
                if (banks_[b]) {
                    shape.rows = banks_[b]->grid().rows();
                    shape.cols = banks_[b]->grid().cols();
                    shape.occupancy = banks_[b]->occupancy();
                }
                begin.banks.push_back(shape);
            }
        }
        for (SimObserver *observer : observers)
            observer->onSimBegin(begin);

        if constexpr (KIND != SamKind::Conventional) {
            // The initial layout as occupy events (index -1, beat 0),
            // bank-major then row-major — the state every later
            // occupy/vacate delta applies to.
            for (std::size_t b = 0; b < banks_.size(); ++b) {
                if (!banks_[b])
                    continue;
                const OccupancyGrid &grid = banks_[b]->grid();
                for (std::int32_t r = 0; r < grid.rows(); ++r) {
                    for (std::int32_t c = 0; c < grid.cols(); ++c) {
                        const QubitId q = grid.at({r, c});
                        if (q == kNoQubit)
                            continue;
                        const BankCellEvent event{
                            -1, 0, static_cast<std::int32_t>(b), q,
                            Coord{r, c}, CellEventKind::Occupy};
                        for (SimObserver *observer : observers)
                            observer->onBankCell(event);
                    }
                }
                recorders_.push_back(std::make_unique<CellRecorder>(
                    this, static_cast<std::int32_t>(b)));
                banks_[b]->setCellListener(recorders_.back().get());
            }
        }
    }

    /**
     * Detach the bank hooks. The SimEndEvent itself is emitted by
     * simulate(), after the recordTrace/recordBreakdown shims have
     * moved their output into the result — observers were promised
     * the *finished* SimResult, trace vectors and breakdown included.
     */
    void
    endObservation()
    {
        if constexpr (KIND != SamKind::Conventional) {
            for (Bank *bank : banks_)
                if (bank)
                    bank->setCellListener(nullptr);
        }
    }

    // ---- setup --------------------------------------------------------

    /**
     * Pick the conventional-region variables: bankOf_ is -1 for them
     * and 0 for the SAM-resident ones until setupBanks deals those.
     */
    void
    setupResidency()
    {
        const auto n = static_cast<std::size_t>(prog_.numVariables());
        if constexpr (KIND == SamKind::Conventional) {
            bankOf_.assign(n, -1);
            numConventional_ = static_cast<std::int64_t>(n);
            return;
        }
        bankOf_.assign(n, 0);
        numConventional_ = static_cast<std::int64_t>(
            cfg_.hybridFraction * static_cast<double>(n) + 0.5);
        numConventional_ =
            std::min<std::int64_t>(numConventional_,
                                   static_cast<std::int64_t>(n));
        if (numConventional_ > 0) {
            // The hottest variables by static reference count move into
            // the conventional region (Sec. VI-C), ties toward lower id.
            const auto refs = prog_.referenceCounts();
            std::vector<std::int32_t> order(n);
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(order.begin(), order.end(),
                             [&refs](std::int32_t a, std::int32_t b) {
                                 return refs[static_cast<std::size_t>(a)] >
                                        refs[static_cast<std::size_t>(b)];
                             });
            for (std::int64_t i = 0; i < numConventional_; ++i)
                bankOf_[static_cast<std::size_t>(
                    order[static_cast<std::size_t>(i)])] = -1;
        }
    }

    /**
     * Within-bank placement order. Interleaved places bit i of every
     * program register adjacently, so bit-sliced working sets start
     * co-located ("strategic data allocation").
     */
    std::vector<QubitId>
    placementOrder(std::vector<QubitId> vars) const
    {
        if (cfg_.placement == PlacementPolicy::RowMajor)
            return vars;
        std::stable_sort(
            vars.begin(), vars.end(),
            [this](QubitId a, QubitId b) {
                const std::int32_t ra = prog_.registerOf(a);
                const std::int32_t rb = prog_.registerOf(b);
                const std::int64_t oa =
                    ra < 0 ? a
                           : a - prog_.registers()[static_cast<
                                     std::size_t>(ra)].first;
                const std::int64_t ob =
                    rb < 0 ? b
                           : b - prog_.registers()[static_cast<
                                     std::size_t>(rb)].first;
                return std::tie(oa, ra) < std::tie(ob, rb);
            });
        return vars;
    }

    void
    setupBanks()
    {
        if constexpr (KIND == SamKind::Conventional)
            return;
        // Deal SAM-resident variables round-robin over the banks
        // ("distributed sequentially to all the banks in order").
        std::vector<std::vector<QubitId>> dealt(
            static_cast<std::size_t>(cfg_.banks));
        std::int64_t next = 0;
        for (std::int32_t v = 0; v < prog_.numVariables(); ++v) {
            if (bankOf_[static_cast<std::size_t>(v)] < 0)
                continue;
            const auto b = static_cast<std::size_t>(next % cfg_.banks);
            dealt[b].push_back(v);
            bankOf_[static_cast<std::size_t>(v)] =
                static_cast<std::int32_t>(b);
            ++next;
        }
        for (auto &vars : dealt)
            vars = placementOrder(std::move(vars));
        // Reserved up front: banks_ points into bankStore_.
        bankStore_.reserve(dealt.size());
        banks_.assign(dealt.size(), nullptr);
        for (std::size_t b = 0; b < dealt.size(); ++b) {
            if (dealt[b].empty())
                continue;
            const auto cap =
                static_cast<std::int32_t>(dealt[b].size());
            banks_[b] = &bankStore_.emplace_back(cap, cfg_.lat);
            banks_[b]->placeInitial(dealt[b]);
        }
    }

    // ---- bank dispatch -------------------------------------------------

    bool
    isConv(std::int32_t m) const
    {
        if constexpr (KIND == SamKind::Conventional)
            return true;
        return bankOf_[static_cast<std::size_t>(m)] < 0;
    }

    std::int32_t
    bankOf(std::int32_t m) const
    {
        const std::int32_t b = bankOf_[static_cast<std::size_t>(m)];
        LSQCA_ASSERT(b >= 0, "variable is not SAM-resident");
        return b;
    }

    Bank &
    bank(std::int32_t m) const
    {
        return *banks_[static_cast<std::size_t>(bankOf(m))];
    }

    // One bank call per operation against a caller-resolved bank
    // reference: each commit returns the beats its cost query would
    // have, so the qubit's position is looked up once, and each exec
    // path looks its bank up once per instruction (the dispatch
    // indirection showed up in the point/line simulate() profiles next
    // to the scans themselves).
    // Each helper also owns its latency-split attribution, so every
    // exec path charges the right component without repeating itself
    // (the `if constexpr` strips it from the unobserved instantiation).

    std::int64_t
    takeLoad(Bank &b, std::int32_t m)
    {
        const std::int64_t cost = b.commitLoad(m);
        if constexpr (OBSERVE)
            split_.load += cost;
        return cost;
    }

    std::int64_t
    takeStore(Bank &b, std::int32_t m)
    {
        const std::int64_t cost = b.commitStore(m, cfg_.localityStore);
        if constexpr (OBSERVE)
            split_.store += cost;
        return cost;
    }

    /** Ablation path: round-trip through the CR instead of in-memory. */
    std::int64_t
    takeRoundTrip(Bank &b, std::int32_t m)
    {
        // Sequenced explicitly: the store is only legal once the load
        // has removed m from the grid.
        const std::int64_t ld = takeLoad(b, m);
        return ld + takeStore(b, m);
    }

    /** Scan/gap travel for an in-memory single-qubit op. */
    std::int64_t
    takeInMem1q(Bank &b, std::int32_t m)
    {
        if constexpr (KIND == SamKind::Line) {
            const std::int64_t cost = b.commitAlign(m);
            if constexpr (OBSERVE)
                split_.align += cost;
            return cost;
        } else {
            const std::int64_t cost = b.commitSeek(m);
            if constexpr (OBSERVE)
                split_.seek += cost;
            return cost;
        }
    }

    /** Positioning for an in-memory two-qubit op against the CR/port. */
    std::int64_t
    takeInMem2q(Bank &b, std::int32_t m)
    {
        if constexpr (KIND == SamKind::Line) {
            const std::int64_t cost = b.commitAlign(m);
            if constexpr (OBSERVE)
                split_.align += cost;
            return cost;
        } else {
            const std::int64_t cost = b.commitFetchToPort(m);
            if constexpr (OBSERVE)
                split_.pick += cost;
            return cost;
        }
    }

    // ---- issue helpers --------------------------------------------------

    /** Consume the pending SK barrier (applies to one instruction). */
    std::int64_t
    takeBarrier()
    {
        const std::int64_t b = barrier_;
        barrier_ = 0;
        return b;
    }

    std::int64_t &
    scanFree(std::int32_t m)
    {
        return scanFree_[static_cast<std::size_t>(bankOf(m))];
    }

    // ---- per-opcode execution -------------------------------------------

    /** Timing outcome of one instruction. */
    struct Step
    {
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int64_t memoryBeats = 0;
    };

    Step
    execute(const Instruction &inst)
    {
        switch (inst.op) {
          case Opcode::LD: return execLoad(inst);
          case Opcode::ST: return execStore(inst);
          case Opcode::PZ_C:
          case Opcode::PP_C: return execPrepC(inst);
          case Opcode::PM: return execMagic(inst);
          case Opcode::HD_C:
          case Opcode::PH_C: return execUnitaryC(inst);
          case Opcode::MX_C:
          case Opcode::MZ_C: return execMeasC(inst);
          case Opcode::MXX_C:
          case Opcode::MZZ_C: return execMeas2C(inst);
          case Opcode::SK: return execSkip(inst);
          case Opcode::PZ_M:
          case Opcode::PP_M:
          case Opcode::MX_M:
          case Opcode::MZ_M: return execZeroLatM(inst);
          case Opcode::HD_M:
          case Opcode::PH_M: return execUnitaryM(inst);
          case Opcode::MXX_M:
          case Opcode::MZZ_M: return execMeas2M(inst);
          case Opcode::CX:
          case Opcode::CZ: return execCxCz(inst);
        }
        throw InternalError("unhandled opcode");
    }

    Step
    execLoad(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        if (isConv(inst.m0)) {
            // Conventional-region qubits are always register-adjacent.
            const std::int64_t start =
                maxOf(var, slot, takeBarrier());
            var = slot = start;
            return {start, start, 0};
        }
        auto &scan = scanFree(inst.m0);
        const std::int64_t start =
            maxOf(var, slot, scan, takeBarrier());
        const std::int64_t cost =
            takeLoad(bank(inst.m0), inst.m0);
        const std::int64_t end = start + cost;
        var = slot = scan = end;
        return {start, end, cost};
    }

    Step
    execStore(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        if (isConv(inst.m0)) {
            const std::int64_t start =
                maxOf(var, slot, takeBarrier());
            var = slot = start;
            return {start, start, 0};
        }
        auto &scan = scanFree(inst.m0);
        const std::int64_t start =
            maxOf(var, slot, scan, takeBarrier());
        const std::int64_t cost =
            takeStore(bank(inst.m0), inst.m0);
        const std::int64_t end = start + cost;
        var = slot = scan = end;
        return {start, end, cost};
    }

    Step
    execPrepC(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        const std::int64_t start = std::max(slot, takeBarrier());
        slot = start;
        return {start, start, 0};
    }

    Step
    execMagic(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        const std::int64_t req = std::max(slot, takeBarrier());
        const MagicSource::Grant grant = magic_.acquire(req);
        slot = grant.end;
        if constexpr (OBSERVE)
            split_.magicStall += grant.start - req;
        return {grant.start, grant.end, 0};
    }

    Step
    execUnitaryC(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        const std::int64_t start = std::max(slot, takeBarrier());
        const std::int64_t beats = inst.op == Opcode::HD_C
                                       ? cfg_.lat.hadamard
                                       : cfg_.lat.phase;
        const std::int64_t end = start + beats;
        slot = end;
        if constexpr (OBSERVE)
            split_.compute += beats;
        return {start, end, 0};
    }

    Step
    execMeasC(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        const std::int64_t start = std::max(slot, takeBarrier());
        slot = start;
        valReady_[static_cast<std::size_t>(inst.v0)] = start;
        return {start, start, 0};
    }

    Step
    execMeas2C(const Instruction &inst)
    {
        auto &slot0 = slotReady_[static_cast<std::size_t>(inst.c0)];
        auto &slot1 = slotReady_[static_cast<std::size_t>(inst.c1)];
        const std::int64_t start =
            maxOf(slot0, slot1, takeBarrier());
        const std::int64_t end = start + cfg_.lat.surgery;
        slot0 = slot1 = end;
        valReady_[static_cast<std::size_t>(inst.v0)] = end;
        if constexpr (OBSERVE)
            split_.surgery += cfg_.lat.surgery;
        return {start, end, 0};
    }

    Step
    execSkip(const Instruction &inst)
    {
        const std::int64_t start =
            std::max(valReady_[static_cast<std::size_t>(inst.v0)],
                     takeBarrier());
        const std::int64_t end = start + cfg_.lat.skWait;
        barrier_ = end; // gates only the next instruction
        if constexpr (OBSERVE)
            split_.skWait += cfg_.lat.skWait;
        return {start, end, 0};
    }

    Step
    execZeroLatM(const Instruction &inst)
    {
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        const std::int64_t start = std::max(var, takeBarrier());
        var = start;
        if (inst.v0 >= 0)
            valReady_[static_cast<std::size_t>(inst.v0)] = start;
        return {start, start, 0};
    }

    Step
    execUnitaryM(const Instruction &inst)
    {
        const std::int64_t beats = inst.op == Opcode::HD_M
                                       ? cfg_.lat.hadamard
                                       : cfg_.lat.phase;
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        if (isConv(inst.m0)) {
            const std::int64_t start = std::max(var, takeBarrier());
            const std::int64_t end = start + beats;
            var = end;
            if constexpr (OBSERVE)
                split_.compute += beats;
            return {start, end, 0};
        }
        auto &scan = scanFree(inst.m0);
        Bank &b = bank(inst.m0);

        // Row-parallel unitaries (Sec. V-C): a second H/S whose target
        // shares the currently-open gap-row window executes in the same
        // window for free. Line SAM only — the branch vanishes from the
        // point/conventional instantiations.
        if constexpr (KIND == SamKind::Line) {
            if (cfg_.rowParallelOps && cfg_.inMemoryOps &&
                barrier_ == 0 && rowBatch_.valid &&
                rowBatch_.op == inst.op &&
                rowBatch_.bank == bankOf(inst.m0)) {
                const std::int32_t row = b.positionOf(inst.m0).row;
                if (row == rowBatch_.row && var <= rowBatch_.start) {
                    var = rowBatch_.end;
                    // A shared window: no split components — the
                    // motion and compute were charged to the opener.
                    return {rowBatch_.start, rowBatch_.end, 0};
                }
            }
        }

        const std::int64_t start = maxOf(var, scan, takeBarrier());
        const std::int64_t motion =
            cfg_.inMemoryOps ? takeInMem1q(b, inst.m0)
                             : takeRoundTrip(b, inst.m0);
        const std::int64_t end = start + motion + beats;
        var = scan = end;
        if constexpr (OBSERVE)
            split_.compute += beats;
        if constexpr (KIND == SamKind::Line) {
            if (cfg_.rowParallelOps && cfg_.inMemoryOps) {
                rowBatch_ = {true, inst.op, bankOf(inst.m0),
                             b.positionOf(inst.m0).row,
                             start + motion, end};
            }
        }
        return {start, end, motion};
    }

    Step
    execMeas2M(const Instruction &inst)
    {
        auto &slot = slotReady_[static_cast<std::size_t>(inst.c0)];
        auto &var = varReady_[static_cast<std::size_t>(inst.m0)];
        if (isConv(inst.m0)) {
            const std::int64_t start =
                maxOf(var, slot, takeBarrier());
            const std::int64_t end = start + cfg_.lat.surgery;
            var = slot = end;
            valReady_[static_cast<std::size_t>(inst.v0)] = end;
            if constexpr (OBSERVE)
                split_.surgery += cfg_.lat.surgery;
            return {start, end, 0};
        }
        // Concealment (Fig. 1): the scan motion starts as soon as the
        // operand and the scan cell are free; the lattice surgery then
        // begins once BOTH the positioned operand and the CR-side state
        // (e.g. the magic state PM is fetching) are ready. The memory
        // latency hides behind the magic-state wait.
        auto &scan = scanFree(inst.m0);
        Bank &b = bank(inst.m0);
        const std::int64_t motion_start =
            maxOf(var, scan, takeBarrier());
        std::int64_t motion;
        if constexpr (OBSERVE)
            split_.surgery += cfg_.lat.surgery;
        if (cfg_.inMemoryOps) {
            motion = takeInMem2q(b, inst.m0);
            const std::int64_t surgery_start =
                std::max(motion_start + motion, slot);
            const std::int64_t end = surgery_start + cfg_.lat.surgery;
            var = slot = end;
            // Point SAM: the operand is parked at the port, so the scan
            // is free to serve other requests during the magic wait;
            // line SAM must keep the gap row aligned (it is the merge
            // path) until the surgery completes.
            if constexpr (KIND == SamKind::Point)
                scan = motion_start + motion;
            else
                scan = end;
            valReady_[static_cast<std::size_t>(inst.v0)] = end;
            return {motion_start, end, motion};
        }
        motion = takeLoad(b, inst.m0);
        const std::int64_t st = takeStore(b, inst.m0);
        const std::int64_t surgery_start =
            std::max(motion_start + motion, slot);
        const std::int64_t end = surgery_start + cfg_.lat.surgery + st;
        var = slot = scan = end;
        valReady_[static_cast<std::size_t>(inst.v0)] = end;
        return {motion_start, end, motion + st};
    }

    /**
     * Optimized CX/CZ (Sec. VI-A): at run time the machine loads the
     * cheaper operand into the CR and touches the other in memory; a
     * lattice-surgery CNOT/CZ is two 1-beat merges via a free |+>
     * ancilla at the port.
     */
    Step
    execCxCz(const Instruction &inst)
    {
        auto &var0 = varReady_[static_cast<std::size_t>(inst.m0)];
        auto &var1 = varReady_[static_cast<std::size_t>(inst.m1)];
        const std::int64_t surgery2 = 2 * cfg_.lat.surgery;
        const bool conv0 = isConv(inst.m0);
        const bool conv1 = isConv(inst.m1);
        if constexpr (OBSERVE)
            split_.surgery += surgery2;

        if (conv0 && conv1) {
            const std::int64_t start =
                maxOf(var0, var1, takeBarrier());
            const std::int64_t end = start + surgery2;
            var0 = var1 = end;
            return {start, end, 0};
        }

        if (conv0 != conv1) {
            const std::int32_t q = conv0 ? inst.m1 : inst.m0;
            auto &scan = scanFree(q);
            Bank &b = bank(q);
            const std::int64_t start =
                maxOf(var0, var1, scan, takeBarrier());
            const std::int64_t motion =
                cfg_.inMemoryOps ? takeInMem2q(b, q)
                                 : takeRoundTrip(b, q);
            const std::int64_t end = start + motion + surgery2;
            var0 = var1 = scan = end;
            return {start, end, motion};
        }

        // Both operands live in SAM.
        auto &scan0 = scanFree(inst.m0);
        auto &scan1 = scanFree(inst.m1);
        Bank &bank0 = bank(inst.m0);
        Bank &bank1 = bank(inst.m1);
        const bool same_bank = bankOf(inst.m0) == bankOf(inst.m1);
        const std::int64_t start =
            maxOf(var0, var1, scan0, scan1, takeBarrier());

        std::int64_t motion;
        std::int64_t end;
        if (!cfg_.inMemoryOps) {
            // Ablation: round-trip both operands through the CR.
            const std::int64_t ld0 = takeLoad(bank0, inst.m0);
            const std::int64_t ld1 = takeLoad(bank1, inst.m1);
            const std::int64_t st0 = takeStore(bank0, inst.m0);
            const std::int64_t st1 = takeStore(bank1, inst.m1);
            motion = ld0 + ld1 + st0 + st1;
            if (same_bank) {
                end = start + motion + surgery2;
            } else {
                end = start + std::max(ld0, ld1) + surgery2 +
                      std::max(st0, st1);
                scan1 = end;
            }
            scan0 = end;
            var0 = var1 = end;
            return {start, end, motion};
        }

        if (same_bank) {
            if constexpr (KIND != SamKind::Line) {
                // Drag both operands to the port region (they stay in
                // memory; locality makes later touches cheap). The
                // port-side surgery itself does not occupy the scan.
                motion = takeInMem2q(bank0, inst.m0);
                motion += takeInMem2q(bank0, inst.m1);
                end = start + motion + surgery2;
                scan0 = start + motion;
                var0 = var1 = end;
                return {start, end, motion};
            } else {
                Bank &b = bank0;
                if (cfg_.directSurgery &&
                    b.canDirectSurgery(inst.m0, inst.m1)) {
                    // Extension: lattice surgery straight between two
                    // data cells sharing a line; only the gap
                    // repositions.
                    motion = b.commitDirectSurgery(inst.m0, inst.m1);
                    if constexpr (OBSERVE)
                        split_.align += motion;
                    end = start + motion + surgery2;
                } else {
                    // Sec. VI-A translation rule: load the cheaper
                    // operand into the CR, touch the other in memory,
                    // and store the loaded one back — the
                    // locality-aware store drops it into the partner's
                    // line (Sec. V-B pairing). The load-cost queries
                    // only pick the operand; takeLoad charges it.
                    const bool load0 =
                        b.loadCost(inst.m0) <= b.loadCost(inst.m1);
                    const std::int32_t loaded =
                        load0 ? inst.m0 : inst.m1;
                    const std::int32_t in_mem =
                        load0 ? inst.m1 : inst.m0;
                    const std::int64_t ld = takeLoad(b, loaded);
                    const std::int64_t pos =
                        takeInMem2q(b, in_mem);
                    const std::int64_t st = takeStore(b, loaded);
                    motion = ld + pos + st;
                    end = start + motion + surgery2;
                }
            }
            scan0 = end;
        } else {
            // Cross-bank: each bank positions its operand concurrently;
            // the merge path runs through the CR ports. Point scans are
            // released after positioning; line gaps hold their rows.
            const std::int64_t pos0 = takeInMem2q(bank0, inst.m0);
            const std::int64_t pos1 = takeInMem2q(bank1, inst.m1);
            motion = pos0 + pos1;
            end = start + std::max(pos0, pos1) + surgery2;
            if constexpr (KIND == SamKind::Point) {
                scan0 = start + pos0;
                scan1 = start + pos1;
            } else {
                scan0 = end;
                scan1 = end;
            }
        }
        var0 = var1 = end;
        return {start, end, motion};
    }

    const Program &prog_;
    SimOptions opts_;
    ArchConfig cfg_;
    MagicSource magic_;

    /** Bank of each variable; -1 = conventional region (the only
     *  residency table). */
    std::vector<std::int32_t> bankOf_;
    std::int64_t numConventional_ = 0;
    std::vector<Bank> bankStore_;
    /** Per bank index: its model in bankStore_, nullptr when no
     *  variable was dealt to it. */
    std::vector<Bank *> banks_;

    /** An open row-parallel unitary window (line SAM, Sec. V-C). */
    struct RowBatch
    {
        bool valid = false;
        Opcode op = Opcode::HD_M;
        std::int32_t bank = -1;
        std::int32_t row = -1;
        std::int64_t start = 0;
        std::int64_t end = 0;
    };

    std::vector<std::int64_t> varReady_;
    std::vector<std::int64_t> valReady_;
    std::vector<std::int64_t> slotReady_;
    std::vector<std::int64_t> scanFree_;
    std::int64_t barrier_ = 0;
    RowBatch rowBatch_;

    // Telemetry state, touched only by the OBSERVE instantiation.
    LatencySplit split_;
    std::int64_t curIndex_ = -1;
    std::vector<BankCellEvent> pendingCells_;
    std::vector<std::unique_ptr<CellRecorder>> recorders_;
};

} // namespace lsqca::detail

#endif // LSQCA_SIM_MACHINE_H
