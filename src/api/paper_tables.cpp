/**
 * @file
 * The paper's tables that need no sweep: Table I (the instruction set
 * with latencies measured by microprobes), Fig. 7 (floorplan
 * densities) and Fig. 8 (memory-reference patterns of the SELECT and
 * multiplier traces). `lsqca render table1|fig07|fig08` prints them.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "analysis/trace_analysis.h"
#include "api/paper_specs.h"
#include "arch/floorplan.h"
#include "circuit/lowering.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca::api::specs {
namespace {

void
appendTable(std::string &out, const TextTable &table,
            const std::string &title)
{
    out += table.render(title);
    out += '\n';
}

// ---- Table I ---------------------------------------------------------------

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
        p.append(inst);

        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        opts.arch.instantMagic = true; // isolate the op itself
        opts.recordTrace = false;
        const SimResult r = simulate(p, opts);
        // Duration of the probed instruction alone.
        stats.add(static_cast<double>(
            r.opcodeBeats[static_cast<std::size_t>(op)]));
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

/**
 * Table I with measured latencies from microprobes on a 100-qubit
 * point-SAM instance (variable-latency entries report min/mean/max
 * over a sweep of operand positions).
 */
std::string
renderTable1()
{
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
    std::string out;
    appendTable(out, table,
                "Table I: LSQCA instruction set "
                "(measured on a 100-qubit point-SAM, instant magic)");
    return out;
}

// ---- Fig. 7 ----------------------------------------------------------------

/**
 * The densities of the existing floorplan strategies versus the LSQCA
 * designs, as closed-form catalogue entries and as measured machine
 * instances at the paper's benchmark sizes.
 */
std::string
renderFig07()
{
    std::string out;
    TextTable catalogue({"Floorplan", "Memory density",
                         "Worst-case access (beats)"});
    for (const auto &entry : floorplanCatalogue()) {
        catalogue.addRow(
            {entry.name, TextTable::num(entry.density, 3),
             entry.accessBeats < 0 ? "variable"
                                   : std::to_string(entry.accessBeats)});
    }
    appendTable(out, catalogue, "Fig. 7: floorplan catalogue");

    TextTable measured({"Benchmark", "Qubits", "point#1", "point#2",
                        "line#1", "line#2", "line#4", "conventional"});
    const std::pair<const char *, std::int64_t> benchmarks[] = {
        {"adder", 433}, {"bv", 280},         {"cat", 260},
        {"ghz", 127},   {"multiplier", 400}, {"square_root", 60},
        {"SELECT", 143},
    };
    const std::pair<SamKind, std::int32_t> machines[] = {
        {SamKind::Point, 1}, {SamKind::Point, 2},
        {SamKind::Line, 1},  {SamKind::Line, 2},
        {SamKind::Line, 4},  {SamKind::Conventional, 1},
    };
    for (const auto &[name, qubits] : benchmarks) {
        std::vector<std::string> row{name, std::to_string(qubits)};
        for (const auto &[sam, banks] : machines) {
            ArchConfig cfg;
            cfg.sam = sam;
            cfg.banks = banks;
            row.push_back(TextTable::num(
                floorplanStats(cfg, qubits, 0).density(), 3));
        }
        measured.addRow(row);
    }
    appendTable(out, measured,
                "Measured densities at paper benchmark sizes "
                "(SAM + CR cells, MSF excluded)");
    return out;
}

// ---- Fig. 8 ----------------------------------------------------------------

/**
 * One benchmark's reference pattern under the Sec. III-B assumptions
 * (instant magic states, unlimited ILP): per-register reference
 * statistics (the 8a/8c register skew), the reference-period CDF at
 * log-spaced periods (8b/8d) and the magic-state demand interval
 * (paper: 11.6 and 2.14 beats).
 */
void
appendTraceTables(std::string &out, const std::string &name,
                  const Circuit &circ)
{
    const Program program = translate(lowerToCliffordT(circ));
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.arch.instantMagic = true;
    opts.recordTrace = true;
    const SimResult result = simulate(program, opts);
    const TraceAnalysis analysis(program, result);

    TextTable summary({"register", "qubits", "references",
                       "refs/qubit", "median period", "p90 period",
                       "p99 period"});
    for (const auto &group : analysis.groups()) {
        std::int64_t qubits = program.numVariables();
        for (const auto &reg : program.registers())
            if (reg.name == group.name)
                qubits = reg.size;
        const bool has_periods = group.periods.count() > 0;
        summary.addRow(
            {group.name, std::to_string(qubits),
             std::to_string(group.references),
             TextTable::num(static_cast<double>(group.references) /
                                static_cast<double>(qubits),
                            1),
             has_periods ? TextTable::num(group.periods.quantile(0.5), 1)
                         : "-",
             has_periods ? TextTable::num(group.periods.quantile(0.9), 1)
                         : "-",
             has_periods ? TextTable::num(group.periods.quantile(0.99), 1)
                         : "-"});
    }
    appendTable(out, summary,
                "Fig. 8 (" + name + "): register reference summary, "
                "exec " + std::to_string(result.execBeats) + " beats");

    std::vector<std::string> cols{"period [beats]"};
    for (const auto &group : analysis.groups())
        cols.push_back(group.name);
    TextTable cdf(cols);
    for (double period : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                          500.0, 1000.0, 5000.0, 20000.0}) {
        std::vector<std::string> row{TextTable::num(period, 0)};
        for (const auto &group : analysis.groups())
            row.push_back(group.periods.count() > 0
                              ? TextTable::num(group.periods.at(period),
                                               3)
                              : "-");
        cdf.addRow(row);
    }
    appendTable(out, cdf,
                "Fig. 8b/8d (" + name +
                    "): cumulative reference-period distribution");

    TextTable scalars({"metric", "value"});
    scalars.addRow({"magic demand interval [beats]",
                    TextTable::num(analysis.magicDemandInterval(), 2)});
    scalars.addRow({"mean reference period [beats]",
                    TextTable::num(analysis.meanPeriod(), 2)});
    scalars.addRow({"sequential-access fraction (radius 2)",
                    TextTable::num(analysis.sequentialFraction(2), 3)});
    scalars.addRow(
        {"total references", std::to_string(analysis.totalReferences())});
    appendTable(out, scalars,
                "Sec. III-B scalars (" + name +
                    ") [paper: SELECT 11.6, multiplier 2.14 "
                    "beats/magic]");
}

/** Fig. 8: the 10x10 Heisenberg SELECT and the whole multiplier. */
std::string
renderFig08()
{
    std::string out;
    appendTraceTables(out, "SELECT", makeSelect({10, 0}));
    appendTraceTables(out, "multiplier", makeMultiplier());
    return out;
}

} // namespace

std::optional<std::string>
renderTable(const std::string &name)
{
    if (name == "table1")
        return renderTable1();
    if (name == "fig07")
        return renderFig07();
    if (name == "fig08")
        return renderFig08();
    return std::nullopt;
}

} // namespace lsqca::api::specs
