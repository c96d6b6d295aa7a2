/**
 * @file
 * Table I reproduction: the LSQCA instruction set with its latency
 * classes, plus measured latencies from microprobes on a 100-qubit
 * point-SAM instance (variable-latency entries report min/mean/max over
 * a sweep of operand positions).
 */

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "sim/simulator.h"

namespace lsqca {
namespace {

/** Measure one opcode's latency distribution over operand positions. */
SummaryStats
probeOpcode(Opcode op)
{
    SummaryStats stats;
    for (std::int32_t target = 0; target < 99; target += 7) {
        Program p(100);
        std::int32_t v = -1;
        const OpcodeInfo &info = opcodeInfo(op);
        if (info.numVal > 0)
            v = p.newValue();
        // A PM seeds the slot for in-memory two-qubit measurements.
        if (op == Opcode::MZZ_M || op == Opcode::MXX_M ||
            op == Opcode::MZZ_C || op == Opcode::MXX_C ||
            op == Opcode::HD_C || op == Opcode::PH_C ||
            op == Opcode::MX_C || op == Opcode::MZ_C) {
            Instruction pm;
            pm.op = Opcode::PM;
            pm.c0 = 1;
            p.append(pm);
        }
        if (op == Opcode::ST || op == Opcode::HD_C || op == Opcode::PH_C) {
            Instruction ld;
            ld.op = Opcode::LD;
            ld.m0 = target;
            ld.c0 = 0;
            p.append(ld);
        }
        Instruction inst;
        inst.op = op;
        if (info.numMem >= 1)
            inst.m0 = target;
        if (info.numMem >= 2)
            inst.m1 = (target + 31) % 99;
        if (info.numReg >= 1)
            inst.c0 = op == Opcode::MZZ_M || op == Opcode::MXX_M ? 1 : 0;
        if (info.numReg >= 2)
            inst.c1 = 1;
        if (info.numVal >= 1)
            inst.v0 = v;
        const std::int64_t before = p.size();
        p.append(inst);

        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        opts.arch.instantMagic = true; // isolate the op itself
        opts.recordTrace = false;
        const SimResult r = simulate(p, opts);
        // Duration of the probed instruction alone.
        const auto idx = static_cast<std::size_t>(inst.op);
        std::int64_t dur = r.opcodeBeats[idx];
        if (op == Opcode::LD)
            dur = r.opcodeBeats[static_cast<std::size_t>(Opcode::LD)];
        (void)before;
        stats.add(static_cast<double>(dur));
    }
    return stats;
}

const char *
describe(Opcode op)
{
    switch (op) {
      case Opcode::LD: return "Load logical qubit from SAM to CR";
      case Opcode::ST: return "Store logical qubit from CR to SAM";
      case Opcode::PZ_C: return "Initialize CR qubit to |0>";
      case Opcode::PP_C: return "Initialize CR qubit to |+>";
      case Opcode::PM: return "Move magic state from MSF to CR";
      case Opcode::HD_C: return "Hadamard on a CR qubit";
      case Opcode::PH_C: return "Phase gate on a CR qubit";
      case Opcode::MX_C: return "Pauli-X measurement in CR";
      case Opcode::MZ_C: return "Pauli-Z measurement in CR";
      case Opcode::MXX_C: return "Pauli-XX measurement in CR";
      case Opcode::MZZ_C: return "Pauli-ZZ measurement in CR";
      case Opcode::SK: return "Skip next instruction if value is zero";
      case Opcode::PZ_M: return "In-memory |0> initialization";
      case Opcode::PP_M: return "In-memory |+> initialization";
      case Opcode::HD_M: return "In-memory Hadamard";
      case Opcode::PH_M: return "In-memory phase gate";
      case Opcode::MX_M: return "In-memory Pauli-X measurement";
      case Opcode::MZ_M: return "In-memory Pauli-Z measurement";
      case Opcode::MXX_M: return "In-memory XX measurement vs CR";
      case Opcode::MZZ_M: return "In-memory ZZ measurement vs CR";
      case Opcode::CX: return "Optimized CNOT on memory qubits";
      case Opcode::CZ: return "Optimized CZ on memory qubits";
    }
    return "";
}

const char *
className(OpClass cls)
{
    switch (cls) {
      case OpClass::Memory: return "Memory";
      case OpClass::Preparation: return "Preparation";
      case OpClass::Unitary: return "Unitary";
      case OpClass::Measurement: return "Measurement";
      case OpClass::Control: return "Control";
      case OpClass::InMemoryPreparation: return "In-Memory Prep";
      case OpClass::InMemoryUnitary: return "In-Memory Unitary";
      case OpClass::InMemoryMeasurement: return "In-Memory Meas";
      case OpClass::OptimizedUnitary: return "Optimized Unitary";
    }
    return "";
}

} // namespace
} // namespace lsqca

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const auto args = bench::parseArgs(argc, argv);

    TextTable table({"Type", "Syntax", "Table-I latency",
                     "Measured (min/mean/max beats)", "Description"});
    for (int i = 0; i < kNumOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        const OpcodeInfo &info = opcodeInfo(op);
        const SummaryStats stats = probeOpcode(op);
        const std::string fixed =
            info.latency == kVariableLatency
                ? "variable"
                : std::to_string(info.latency) + " beat";
        char measured[64];
        std::snprintf(measured, sizeof measured, "%.0f / %.1f / %.0f",
                      stats.min(), stats.mean(), stats.max());
        table.addRow({className(info.cls), info.mnemonic, fixed, measured,
                      describe(op)});
    }
    bench::emit(table,
                "Table I: LSQCA instruction set "
                "(measured on a 100-qubit point-SAM, instant magic)",
                args, "table1_isa");
    return 0;
}
