/**
 * @file
 * perfbench: the repository benchmark (NOTES.md).
 *
 *   perfbench --workload fig14_full|fig15_full|campaign_fig14
 *             --seed N --seconds S --trace 0|1 [--min-passes N]
 *             --work-dir DIR --trace-dir DIR
 *   perfbench --record-oracle    (rewrite the oracle TSVs from this build)
 *
 * Prints a human report (host block, every metric by name with its
 * unit, layer shares) and, as the last line of stdout, one JSON object
 * with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 */

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.h"
#include "common/json.h"
#include "oracle.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"minstr_per_s", "Minstr/s"},
    {"peak_rss_mb", "MB"},
};

/** Wall times: printed with the end-to-end metrics, not scored. */
const MetricDef kWalls[] = {
    {"wall_s", "s"},
    {"warm_wall_s", "s"},
};

const MetricDef kLayers[] = {
    {"api.expand_s", "s"},
    {"api.serialize_s", "s"},
    {"api.bench_bytes", "bytes"},
    {"api.write_s", "s"},
    {"synth.s", "s"},
    {"circuit.lower_s", "s"},
    {"translate.s", "s"},
    {"translate.programs", "count"},
    {"translate.instructions", "count"},
    {"sim.s", "s"},
    {"sim.instructions", "count"},
    {"sim.minstr_per_s", "Minstr/s"},
    {"sim.jobs", "count"},
    {"sim.job_p50_ms", "ms"},
    {"sim.job_p90_ms", "ms"},
    {"sim.job_p99_ms", "ms"},
    {"sim.exec_beats", "beats"},
    {"sim.memory_beats", "beats"},
    {"arch.point_sam.sim_s", "s"},
    {"arch.line_sam.sim_s", "s"},
    {"arch.conventional.sim_s", "s"},
    {"arch.point_sam.ns_per_instr", "ns"},
    {"arch.line_sam.ns_per_instr", "ns"},
    {"arch.conventional.ns_per_instr", "ns"},
    {"sweep.wall_s", "s"},
    {"sweep.busy_s", "s"},
    {"sweep.utilization", "ratio"},
    {"sweep.imbalance_s", "s"},
    {"service.cache_store_s", "s"},
    {"service.cache_files", "count"},
    {"service.cache_bytes", "bytes"},
    {"service.cache_fetch_s", "s"},
    {"service.job_cache_hit_ratio", "ratio"},
    {"service.job_cache_lookups", "count"},
    {"service.spawns", "count"},
    {"service.attempts", "count"},
    {"service.worker_utilization", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

/** The layer metrics that add up to a traced pass's serial host time. */
const char *const kShares[] = {
    "api.expand_s", "synth.s",         "circuit.lower_s", "translate.s",
    "sim.s",        "api.serialize_s", "api.write_s",
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--min-passes N]\n"
                 "                 [--work-dir DIR] [--trace-dir DIR]\n"
                 "       perfbench --record-oracle\n";
    std::exit(2);
}

std::string
fixed(double value, int digits)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
    return buffer;
}

void
printHost(std::ostream &out)
{
    out << "host: nproc=" << std::thread::hardware_concurrency()
        << " compiler=\"" << PERFBENCH_CXX << "\" build=" << PERFBENCH_BUILD_TYPE
        << " flags=\"" << PERFBENCH_CXX_FLAGS << "\"\n";
}

void
printSamples(const Outcome &outcome, std::ostream &out)
{
    for (const auto &[name, values] : outcome.samples) {
        out << "  samples " << name << " (n=" << values.size() << "):";
        for (const double value : values)
            out << " " << fixed(value, 4);
        out << "\n";
    }
}

int
recordOracles()
{
    for (const std::string &workload : perfbench::workloadNames()) {
        const lsqca::api::SweepSpec spec = perfbench::workloadSpec(workload);
        const perfbench::PassResult pass = perfbench::untracedPass(
            spec, perfbench::kThreads, ".bench_build/oracle", true);
        const std::string path =
            std::string(PERFBENCH_ORACLE_DIR) + "/" +
            perfbench::oracleFile(workload);
        perfbench::Oracle::record(path, pass.document);
        std::cout << workload << ": " << pass.jobs << " digests -> " << path
                  << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    options.workDir = ".bench_build/work";
    options.traceDir = ".bench_build/traces";
    options.oracleDir = PERFBENCH_ORACLE_DIR;
    options.workerExe = PERFBENCH_CLI_BIN;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record-oracle")
            return recordOracles();
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
                haveWorkload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
                if (!(options.seconds > 0.0 && options.seconds <= 600.0))
                    usage("--seconds must be in (0, 600]");
            } else if (arg == "--min-passes") {
                const int passes = std::stoi(value);
                if (passes < 1 || passes > 100)
                    usage("--min-passes must be in [1, 100]");
                options.minPasses = static_cast<std::size_t>(passes);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (arg == "--work-dir") {
                options.workDir = value;
            } else if (arg == "--trace-dir") {
                options.traceDir = value;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");

    Outcome outcome;
    try {
        options.workDir += "/" + options.workload;
        outcome = perfbench::runWorkload(options);
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << options.workload << ": " << error.what()
                  << "\n";
        return 1;
    }

    std::ostream &out = std::cout;
    out << "perfbench " << options.workload << " seed=" << options.seed
        << " seconds=" << options.seconds << " trace=" << options.trace
        << " threads=" << perfbench::kThreads << "\n";
    printHost(out);
    printSamples(outcome, out);

    lsqca::Json metrics = lsqca::Json::object();
    const auto print = [&](const MetricDef &def, double value) {
        out << "  " << std::left << std::setw(32) << def.name
            << fixed(value, 6) << " " << def.unit << "\n";
    };
    const auto emit = [&](const MetricDef &def, double value) {
        print(def, value);
        metrics.set(def.name, lsqca::Json::object()
                                  .set("value", value)
                                  .set("unit", def.unit));
    };
    if (!options.trace) {
        out << "end-to-end (medians over the run):\n";
        for (const MetricDef &def : kEndToEnd)
            emit(def, outcome.endToEnd.at(def.name));
        out << "wall time (medians over the run; not scored):\n";
        for (const MetricDef &def : kWalls)
            print(def, outcome.walls.at(def.name));
    } else {
        out << "per-layer (medians over traced passes):\n";
        for (const MetricDef &def : kLayers)
            emit(def, outcome.layers.at(def.name));
        double total = 0.0;
        for (const char *name : kShares)
            total += outcome.layers.at(name);
        out << "layer shares of traced serial host time:";
        for (const char *name : kShares)
            out << " " << name << "="
                << fixed(100.0 * outcome.layers.at(name) / total, 1) << "%";
        out << "\nstage shares of the traced pass wall:";
        for (const auto &[stage, share] : outcome.wallShares)
            out << " " << stage << "=" << fixed(100.0 * share, 1) << "%";
        out << "\ntrace: " << outcome.tracePath << "\n";
    }
    out << "error_rate: " << outcome.failed << " of " << outcome.attempted
        << " jobs failed or wrong\n";
    for (const std::string &problem : outcome.problems)
        out << "  problem: " << problem << "\n";

    lsqca::Json result = lsqca::Json::object();
    result.set("correct", outcome.failed == 0 && outcome.problems.empty());
    result.set("attempted", outcome.attempted);
    result.set("failed", outcome.failed);
    result.set("metrics", std::move(metrics));
    out << result.dump(0) << std::endl;
    return 0;
}
