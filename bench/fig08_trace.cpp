/**
 * @file
 * Fig. 8 reproduction: memory-reference pattern analysis for the SELECT
 * (10x10 Heisenberg) and multiplier benchmarks under the Sec. III-B
 * assumptions (instant magic states, unlimited ILP).
 *
 * Emits, per benchmark:
 *   - the reference-period CDF sampled at log-spaced periods (8b/8d),
 *   - per-register reference statistics (the 8a/8c register skew),
 *   - the magic-state demand interval (paper: 11.6 and 2.14 beats),
 *   - a reference-timestamp sample series for plotting (CSV mode).
 */

#include "analysis/trace_analysis.h"
#include "bench_util.h"
#include "circuit/lowering.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

struct TraceRun
{
    std::string name;
    Program program;
    SimResult result;
};

TraceRun
runTrace(const std::string &name, const Circuit &circ,
         std::int64_t max_instructions)
{
    Program program = translate(lowerToCliffordT(circ));
    SimOptions opts;
    opts.arch.sam = SamKind::Conventional;
    opts.arch.instantMagic = true;
    opts.recordTrace = true;
    opts.maxInstructions = max_instructions;
    SimResult result = simulate(program, opts);
    return {name, std::move(program), std::move(result)};
}

void
report(const TraceRun &run, const bench::BenchArgs &args)
{
    const TraceAnalysis analysis(run.program, run.result);

    TextTable summary({"register", "qubits", "references",
                       "refs/qubit", "median period", "p90 period",
                       "p99 period"});
    for (const auto &group : analysis.groups()) {
        std::int64_t qubits = run.program.numVariables();
        for (const auto &reg : run.program.registers())
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
    bench::emit(summary,
                "Fig. 8 (" + run.name + "): register reference summary, "
                "exec " + std::to_string(run.result.execBeats) +
                " beats",
                args, "fig08_" + run.name + "_registers");

    TextTable cdf2([&] {
        std::vector<std::string> cols{"period [beats]"};
        for (const auto &group : analysis.groups())
            cols.push_back(group.name);
        return cols;
    }());
    for (double period : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                          500.0, 1000.0, 5000.0, 20000.0}) {
        std::vector<std::string> row{TextTable::num(period, 0)};
        for (const auto &group : analysis.groups())
            row.push_back(group.periods.count() > 0
                              ? TextTable::num(group.periods.at(period),
                                               3)
                              : "-");
        cdf2.addRow(row);
    }
    bench::emit(cdf2,
                "Fig. 8b/8d (" + run.name +
                    "): cumulative reference-period distribution",
                args, "fig08_" + run.name + "_cdf");

    TextTable scalars({"metric", "value"});
    scalars.addRow({"magic demand interval [beats]",
                    TextTable::num(analysis.magicDemandInterval(), 2)});
    scalars.addRow({"mean reference period [beats]",
                    TextTable::num(analysis.meanPeriod(), 2)});
    scalars.addRow({"sequential-access fraction (radius 2)",
                    TextTable::num(analysis.sequentialFraction(2), 3)});
    scalars.addRow(
        {"total references", std::to_string(analysis.totalReferences())});
    bench::emit(scalars,
                "Sec. III-B scalars (" + run.name +
                    ") [paper: SELECT 11.6, multiplier 2.14 "
                    "beats/magic]",
                args, "fig08_" + run.name + "_scalars");

    if (args.csvDir) {
        // Timestamp scatter (Fig. 8a/8c raw series) for plotting.
        TextTable scatter({"time", "qubit"});
        for (const auto &sample : run.result.trace)
            scatter.addRow({std::to_string(sample.time),
                            std::to_string(sample.variable)});
        scatter.writeCsv(*args.csvDir + "/fig08_" + run.name +
                         "_timestamps.csv");
    }
}

} // namespace
} // namespace lsqca

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const auto args = bench::parseArgs(argc, argv);

    // Sec. III-B uses the 10x10 Heisenberg SELECT and the multiplier
    // (first 20,000 beats of the multiplier trace are plotted).
    report(runTrace("SELECT", makeSelect({10, 0}), 0), args);
    report(runTrace("multiplier", makeMultiplier(),
                    args.full ? 0 : 150'000),
           args);
    return 0;
}
