/**
 * @file
 * lsqca — the declarative experiment driver. Turns spec files
 * (the `specs/` directory, schema lsqca-spec-v1) into sweeps without
 * writing or compiling any C++:
 *
 *   lsqca run fig14 --out out             # expand + simulate + BENCH json
 *   lsqca render out/BENCH_fig14.json     # the paper's Fig. 14 tables
 *   lsqca render table1                   # Table I (also fig07, fig08)
 *   lsqca run specs/smoke.json --shard 0/4 --no-timing
 *   lsqca expand specs/fig13.json         # dry-run the job list
 *   lsqca list                            # registry + builtin specs
 *   lsqca merge --out all.json BENCH_smoke.shard*.json
 *   lsqca spec fig13                      # dump a builtin spec as JSON
 *   lsqca emit asm fig13 --job 2          # one job's program as text
 *
 * Shards are contiguous slices of the expanded job vector; merged
 * shard BENCH documents are byte-identical to the unsharded run when
 * both use --no-timing. See docs/SPEC.md for the spec schema.
 *
 * The orchestration service (src/service, docs/SERVICE.md) fans those
 * shards across worker processes on this machine:
 *
 *   lsqca submit specs/fig13.json --workers 4 --no-timing
 *   lsqca status bench/service/fig13_cpi
 *   lsqca resume bench/service/fig13_cpi
 *
 * `submit` expands the spec into shard tasks, persists them in
 * queue.json (schema lsqca-queue-v1), dispatches `lsqca run --shard`
 * workers, retries crashed/timed-out/straggling shards, splices
 * already-computed jobs from a content-addressed result cache, and
 * merges the shards into the same artifact a direct run writes.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>

#include "analysis/estimator.h"
#include "api/paper_specs.h"
#include "api/registry.h"
#include "api/serialize.h"
#include "api/spec.h"
#include "circuit/qasm.h"
#include "common/error.h"
#include "common/fs.h"
#include "common/jsonl.h"
#include "common/metrics.h"
#include "common/shutdown.h"
#include "common/subprocess.h"
#include "common/table.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "service/cache.h"
#include "service/journal.h"
#include "service/orchestrator.h"
#include "service/report.h"
#include "sim/collectors/bank_heatmap.h"
#include "sim/collectors/jsonl_writer.h"
#include "sim/collectors/stall_attribution.h"
#include "sim/collectors/timeline.h"
#include "sim/collectors/trace_collector.h"

namespace {

using namespace lsqca;
using namespace lsqca::api;

int
usage(std::ostream &out, int code)
{
    out <<
        "usage: lsqca <command> [options]\n"
        "\n"
        "commands:\n"
        "  trace <spec>        run ONE job of a spec with telemetry\n"
        "                      collectors attached (docs/OBSERVERS.md)\n"
        "      --job N           job index in the expanded sweep (default"
        " 0)\n"
        "      --events FILE     write JSONL events here (\"-\" = stdout;\n"
        "                        default <out>/TRACE_<spec>.jsonl)\n"
        "      --out DIR         default dir for --events (default"
        " bench/out)\n"
        "      --timeline N      issue-record ring capacity (default"
        " 4096)\n"
        "      --no-cells        skip bank cell events in the JSONL\n"
        "      --full            builtin specs only: drop prefixes\n"
        "  run <spec>          expand and simulate a sweep spec (a\n"
        "                      .json path, or a builtin name)\n"
        "      --threads N       sweep workers (0 = hardware)\n"
        "      --out DIR         BENCH output dir (default bench/out)\n"
        "      --shard i/N       run a contiguous slice of the sweep\n"
        "      --no-timing       zero wall-clock fields (deterministic"
        " output)\n"
        "      --timeout-seconds S  abort (exit 124) past this wall"
        " budget\n"
        "      --seed-check HEX  require this shard fingerprint\n"
        "      --job-cache DIR   splice already-computed jobs from (and\n"
        "                        publish new ones to) a job-granularity\n"
        "                        result cache (docs/SERVICE.md)\n"
        "      --metrics FILE    write a sweep/pool metrics snapshot\n"
        "                        (\"-\" = stdout; docs/METRICS.md)\n"
        "      --full            builtin specs only: drop prefixes\n"
        "  render <BENCH.json> print the paper's tables (Fig. 13/14/15,\n"
        "                      ablations) from a whole-sweep BENCH\n"
        "                      document of that figure's builtin spec\n"
        "  render table1|fig07|fig08  print Table I (the ISA, measured\n"
        "                      latencies), Fig. 7 (floorplan densities)\n"
        "                      or Fig. 8 (reference patterns)\n"
        "  emit <format> <spec>  print ONE job of a spec as text:\n"
        "                      qasm (its circuit, OpenQASM 2.0), asm\n"
        "                      (its LSQCA program), or estimate (the\n"
        "                      closed-form resource estimate of the\n"
        "                      instructions the job simulates, its\n"
        "                      prefix or the whole program; code\n"
        "                      distance and physical qubits of the\n"
        "                      whole program)\n"
        "      --job N           job index in the expanded sweep (default"
        " 0)\n"
        "      --full            builtin specs only: drop prefixes\n"
        "  expand <spec>       validate a spec and print its job list\n"
        "      --shard i/N       print only that slice\n"
        "      --full            builtin specs only: drop prefixes\n"
        "  list                registered benchmarks and builtin specs\n"
        "  merge <json|dir...> merge shard BENCH documents (a directory"
        " adds its BENCH_*.json files)\n"
        "      --out FILE        write merged doc (default stdout)\n"
        "  spec <name>         print a builtin spec (fig13|fig14|"
        "fig15|ablation|smoke)\n"
        "      --full            drop steady-state prefixes\n"
        "  submit <spec.json>  run a spec as a multi-worker campaign\n"
        "      --workers K       concurrent worker processes (default"
        " 2)\n"
        "      --shards N        shard count (default min(jobs, 4K))\n"
        "      --threads N       sweep threads per worker (default 1)\n"
        "      --state DIR       campaign dir (default bench/service/"
        "<spec name>)\n"
        "      --cache DIR       result cache (default <state>/cache)\n"
        "      --no-cache        disable the result cache\n"
        "      --out DIR         merged BENCH dir (default <state>)\n"
        "      --no-timing       deterministic artifact bytes\n"
        "      --timeout-seconds S  per-attempt hard limit\n"
        "      --straggler-factor F deadline = F x median shard wall\n"
        "      --max-attempts M  spawn budget per shard (default 3)\n"
        "      --no-seed-check   skip worker fingerprint verification\n"
        "      --clock MODE      journal time base: monotonic|logical\n"
        "                        (logical stamps deterministic counters;"
        " reruns\n"
        "                        journal byte-identically)\n"
        "      --no-journal      do not write events.jsonl\n"
        "      --daemon SOCK     submit to a running `lsqca serve`\n"
        "                        daemon instead (supports --shards,\n"
        "                        --no-timing, --max-attempts, --weight,\n"
        "                        --wait; pool knobs live on serve)\n"
        "      --weight W        daemon fair-share weight (default 1)\n"
        "      --wait            daemon only: stream the journal and\n"
        "                        block until the campaign finishes\n"
        "      (one-shot submit/resume catch SIGINT/SIGTERM: workers\n"
        "       are reaped, the queue saved, and the exit code is\n"
        "       128+signal; `lsqca resume` continues the campaign)\n"
        "  status <state-dir>  show a campaign's queue (with per-shard\n"
        "                      age from the journal when present)\n"
        "      --daemon SOCK     ask a daemon instead: with a campaign\n"
        "                        name shows its queue, with no argument\n"
        "                        lists every campaign under the root\n"
        "  resume <state-dir>  continue an interrupted campaign\n"
        "      (accepts the submit runtime flags: --workers, --threads,"
        " --cache,\n"
        "       --no-cache, --out, --timeout-seconds, --straggler-"
        "factor,\n"
        "       --max-attempts, --no-seed-check, --clock, --no-journal)\n"
        "  report <state-dir>  reconstruct a campaign's history from its\n"
        "                      events.jsonl journal alone: wall-clock\n"
        "                      breakdown, retry causes, cache hit rate,\n"
        "                      worker utilization (docs/METRICS.md)\n"
        "      --chrome-trace FILE  also export a chrome://tracing /\n"
        "                      Perfetto trace (one track per worker,\n"
        "                      one span per shard attempt)\n"
        "  serve <root>        run the multi-tenant sweep daemon on\n"
        "                      <root>/daemon.sock (docs/DAEMON.md):\n"
        "                      admits concurrent campaigns over a\n"
        "                      line-JSON control protocol and schedules\n"
        "                      their shards fairly over ONE worker pool\n"
        "      --workers K       global worker-process pool (default"
        " 2)\n"
        "      --socket PATH     control socket (default <root>/"
        "daemon.sock)\n"
        "      --cache DIR       shared result cache (default <root>/"
        "cache)\n"
        "      --threads N       sweep threads per worker (default 1)\n"
        "      --timeout-seconds S  per-attempt hard limit\n"
        "      --straggler-factor F deadline = F x median shard wall\n"
        "      --max-attempts M  default spawn budget per shard\n"
        "      --poll-seconds S  scheduler poll cadence (default"
        " 0.02)\n"
        "      --clock MODE      journal time base: monotonic|logical\n"
        "  watch <campaign>    stream a campaign's journal\n"
        "                      (lsqca-events-v1 lines) from a daemon\n"
        "                      until the campaign finishes\n"
        "      --daemon SOCK     daemon control socket (required)\n"
        "  cancel <campaign>   stop an active daemon campaign; workers\n"
        "                      are killed, the queue stays resumable\n"
        "      --daemon SOCK     daemon control socket (required)\n"
        "  drain               let active campaigns finish, admit\n"
        "                      nothing new, then the daemon exits\n"
        "      --daemon SOCK     daemon control socket (required)\n";
    return code;
}

[[noreturn]] void
badArg(const std::string &message)
{
    throw ConfigError(message + " (see `lsqca --help`)");
}

const char *
needValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        badArg(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

std::int32_t
parseCount(const std::string &text, const std::string &flag,
           std::int32_t min, std::int32_t max)
{
    try {
        std::size_t used = 0;
        const int value = std::stoi(text, &used);
        LSQCA_REQUIRE(used == text.size() && value >= min &&
                          value <= max,
                      "bad count");
        return value;
    } catch (const std::exception &) {
        throw ConfigError(flag + " expects an integer in [" +
                          std::to_string(min) + ", " +
                          std::to_string(max) + "], got \"" + text +
                          "\"");
    }
}

/** Load a spec file, or resolve a builtin name (fig13, smoke, ...). */
SweepSpec
loadSpecArg(const std::string &arg, bool full)
{
    if (arg.size() > 5 && arg.substr(arg.size() - 5) == ".json") {
        if (full)
            badArg("--full applies only to builtin spec names; spec "
                   "files encode their own prefixes");
        return SweepSpec::load(arg);
    }
    return specs::byName(arg, full);
}

/** One job of a spec, for the single-job commands (trace, emit). */
struct SelectedJob
{
    SweepSpec spec;
    /** Resolves the job's program (or circuit) on demand. */
    BenchmarkRegistry registry;
    ExpandedJob job;
};

/** Expand @p specArg and pick job @p jobIndex (`--job N`). */
SelectedJob
selectJob(const std::string &specArg, bool full, std::int32_t jobIndex)
{
    SelectedJob selected{loadSpecArg(specArg, full),
                         BenchmarkRegistry::paper(), {}};
    std::vector<ExpandedJob> jobs =
        expandSpec(selected.spec, selected.registry);
    LSQCA_REQUIRE(static_cast<std::size_t>(jobIndex) < jobs.size(),
                  "--job " + std::to_string(jobIndex) +
                      " is out of range: spec \"" + selected.spec.name +
                      "\" expands to " + std::to_string(jobs.size()) +
                      " jobs (see `lsqca expand`)");
    selected.job = std::move(jobs[static_cast<std::size_t>(jobIndex)]);
    return selected;
}

/** JsonlWriter with an optional cell-event mute (`--no-cells`). */
class TraceJsonl : public collectors::JsonlWriter
{
  public:
    TraceJsonl(std::ostream &out, bool cells)
        : collectors::JsonlWriter(out), cells_(cells)
    {
    }

    void
    onBankCell(const BankCellEvent &event) override
    {
        if (cells_)
            collectors::JsonlWriter::onBankCell(event);
    }

  private:
    bool cells_;
};

int
cmdTrace(int argc, char **argv)
{
    std::string specArg;
    std::string eventsPath;
    std::string outDir = "bench/out";
    bool full = false;
    bool cells = true;
    std::int32_t jobIndex = 0;
    std::int32_t timelineCap = 4096;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--job")
            jobIndex = parseCount(needValue(argc, argv, i), "--job", 0,
                                  (1 << 30));
        else if (arg == "--events")
            eventsPath = needValue(argc, argv, i);
        else if (arg == "--out")
            outDir = needValue(argc, argv, i);
        else if (arg == "--timeline")
            timelineCap = parseCount(needValue(argc, argv, i),
                                     "--timeline", 1, 1 << 24);
        else if (arg == "--no-cells")
            cells = false;
        else if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown trace option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("trace takes exactly one spec");
    }
    if (specArg.empty())
        badArg("trace needs a spec file");

    SelectedJob selected = selectJob(specArg, full, jobIndex);
    const SweepSpec &spec = selected.spec;
    const ExpandedJob &job = selected.job;
    const Program &program =
        selected.registry.program(job.bench, job.params, job.translate);

    // One job, every built-in collector attached. The JSONL stream
    // goes straight to a sibling temp file (a long trace with cell
    // events can dwarf memory) and rename() publishes it whole, so a
    // rerun stays byte-comparable and a crash never leaves a torn
    // file at the final path (jsonl::Export, shared with `lsqca
    // report --chrome-trace`).
    collectors::StallAttribution stalls;
    collectors::BankHeatmap heatmap;
    collectors::Timeline timeline(
        static_cast<std::size_t>(timelineCap));
    if (eventsPath.empty())
        eventsPath = outDir + "/TRACE_" + spec.name + ".jsonl";
    jsonl::Export events(eventsPath);
    TraceJsonl jsonl(events.stream(), cells);
    SimOptions options = job.options;
    options.observers = {&stalls, &heatmap, &timeline, &jsonl};
    const SimResult result = simulate(program, options);
    events.publish();

    if (events.toStdout()) {
        // Keep stdout a pure JSONL stream (pipeable); the tables are
        // available by writing events to a file instead.
        std::cerr << "trace: " << jsonl.lines() << " events ("
                  << timeline.seen() << " instructions) -> stdout\n";
        return 0;
    }

    TextTable summary({"metric", "value"});
    summary.addRow({"job", job.name});
    summary.addRow({"machine", job.options.arch.label()});
    summary.addRow({"instructions",
                    std::to_string(result.instructionsSimulated)});
    summary.addRow({"exec [beats]", std::to_string(result.execBeats)});
    summary.addRow({"CPI", TextTable::num(result.cpi, 3)});
    summary.addRow({"memory motion [beats]",
                    std::to_string(result.memoryBeats)});
    summary.addRow({"magic stall [beats]",
                    std::to_string(result.magicStallBeats)});
    summary.addRow({"density", TextTable::num(result.density(), 3)});
    std::cout << summary.render("lsqca trace: " + spec.name + " job #" +
                                std::to_string(jobIndex));
    std::cout << "\n"
              << stalls.table().render(
                     "stall attribution (beats by component)");
    for (std::size_t b = 0; b < heatmap.banks().size(); ++b) {
        if (heatmap.banks()[b].cells.empty())
            continue;
        std::cout << "\n"
                  << heatmap.table(b).render(
                         "bank " + std::to_string(b) +
                         " heat (occupancy share, touches)");
    }
    std::cerr << "trace: " << jsonl.lines() << " events ("
              << timeline.seen() << " instructions) -> " << eventsPath
              << "\n";
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    std::string specArg;
    std::string metricsPath;
    std::string jobCacheDir;
    bool full = false;
    double sleepSeconds = 0.0;
    RunSpecOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads")
            options.threads =
                parseThreadCount(needValue(argc, argv, i));
        else if (arg == "--metrics")
            metricsPath = needValue(argc, argv, i);
        else if (arg == "--out")
            options.outDir = needValue(argc, argv, i);
        else if (arg == "--shard")
            options.shard = ShardRange::parse(needValue(argc, argv, i));
        else if (arg == "--no-timing")
            options.noTiming = true;
        else if (arg == "--timeout-seconds")
            options.timeoutSeconds =
                parseTimeoutSeconds(needValue(argc, argv, i));
        else if (arg == "--seed-check")
            options.seedCheck =
                parseFingerprintArg(needValue(argc, argv, i));
        else if (arg == "--job-cache")
            jobCacheDir = needValue(argc, argv, i);
        else if (arg == "--die-after")
            // Test-only crash hook (see docs/SERVICE.md): simulate N
            // jobs, then exit kDieAfterExitCode without output.
            options.dieAfter = parseCount(needValue(argc, argv, i),
                                          "--die-after", 0, 1 << 30);
        else if (arg == "--test-sleep-seconds")
            // Test-only latency hook: hold the worker before it
            // simulates, so signal/drain paths can catch a campaign
            // verifiably mid-flight (docs/DAEMON.md).
            sleepSeconds =
                parseTimeoutSeconds(needValue(argc, argv, i));
        else if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown run option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("run takes exactly one spec");
    }
    if (specArg.empty())
        badArg("run needs a spec file");

    const SweepSpec spec = loadSpecArg(specArg, full);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    metrics::Registry metrics;
    if (!metricsPath.empty())
        options.metrics = &metrics;
    // An empty dir constructs a disabled cache, so the adapter is only
    // wired in when the flag was given.
    service::ResultCache jobCacheStore(jobCacheDir);
    service::JobCacheAdapter jobCacheAdapter(jobCacheStore);
    if (jobCacheStore.enabled())
        options.jobCache = &jobCacheAdapter;
    if (sleepSeconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleepSeconds));
    const SpecRun run = runSpec(spec, registry, options);
    if (!metricsPath.empty()) {
        if (metricsPath == "-")
            std::cout << metrics.toJson().dump() << "\n";
        else
            fsutil::writeFileAtomic(metricsPath,
                                    metrics.toJson().dump(2) + "\n");
    }

    TextTable table({"name", "cpi", "exec_beats", "density"});
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const SimResult &r = run.report.results[i];
        table.addRow({run.jobs[i].name, TextTable::num(r.cpi, 3),
                      std::to_string(r.execBeats),
                      TextTable::num(r.density(), 3)});
    }
    std::cout << table.render("lsqca run: " + spec.name);
    return 0;
}

int
cmdRender(int argc, char **argv)
{
    if (argc != 3 || argv[2][0] == '-')
        badArg("render takes exactly one table name or BENCH json");
    if (const auto table = specs::renderTable(argv[2]))
        std::cout << *table;
    else
        std::cout << specs::renderFigure(Json::load(argv[2]));
    return 0;
}

int
cmdEmit(int argc, char **argv)
{
    if (argc < 3)
        badArg("emit needs a format (qasm|asm|estimate) and a spec");
    const std::string format = argv[2];
    if (format != "qasm" && format != "asm" && format != "estimate") {
        std::cerr << "lsqca: unknown emit format \"" << format
                  << "\" (qasm|asm|estimate)\n";
        return 2;
    }
    std::string specArg;
    bool full = false;
    std::int32_t jobIndex = 0;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--job")
            jobIndex = parseCount(needValue(argc, argv, i), "--job", 0,
                                  (1 << 30));
        else if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown emit option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("emit takes exactly one spec");
    }
    if (specArg.empty())
        badArg("emit needs a spec file");

    SelectedJob selected = selectJob(specArg, full, jobIndex);
    const ExpandedJob &job = selected.job;
    if (format == "qasm") {
        std::cout << toQasm(
            selected.registry.entry(job.bench).synthesize(job.params));
        return 0;
    }
    const Program &program =
        selected.registry.program(job.bench, job.params, job.translate);
    if (format == "asm") {
        std::cout << program.disassemble();
        return 0;
    }
    // The estimate covers the job's simulated prefix, so its bound
    // compares with the job's exec_beats. The code distance sizes the
    // machine that runs the whole program, prefix or not.
    const ResourceEstimate est = estimateResources(
        program.prefix(job.options.maxInstructions), job.options.arch);
    const std::int32_t d = requiredCodeDistance(
        estimateResources(program, job.options.arch).lowerBoundBeats,
        est.floorplan.totalCells);
    std::cout << est.report() << "  code distance (1% run budget): " << d
              << "\n  physical qubits      : "
              << physicalQubits(est.floorplan.totalCells, d) << "\n";
    return 0;
}

int
cmdExpand(int argc, char **argv)
{
    std::string specArg;
    bool full = false;
    ShardRange shard;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--shard")
            shard = ShardRange::parse(needValue(argc, argv, i));
        else if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown expand option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("expand takes exactly one spec");
    }
    if (specArg.empty())
        badArg("expand needs a spec file");

    const SweepSpec spec = loadSpecArg(specArg, full);
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const std::vector<ExpandedJob> jobs = expandSpec(spec, registry);
    const auto [begin, end] = shard.bounds(jobs.size());

    TextTable table({"#", "name", "bench", "params", "machine",
                     "prefix"});
    for (std::size_t i = begin; i < end; ++i) {
        const ExpandedJob &job = jobs[i];
        table.addRow({std::to_string(i), job.name, job.bench,
                      job.params.dump(0), job.options.arch.label(),
                      std::to_string(job.options.maxInstructions)});
    }
    std::cout << table.render("lsqca expand: " + spec.name + " (" +
                              std::to_string(end - begin) + " of " +
                              std::to_string(jobs.size()) + " jobs)");
    return 0;
}

int
cmdList()
{
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    TextTable benches({"benchmark", "default params", "summary"});
    for (const BenchmarkEntry &entry : registry.entries())
        benches.addRow({entry.name,
                        entry.canonicalize(Json()).dump(0),
                        entry.summary});
    std::cout << benches.render("registered benchmarks") << "\n";

    TextTable builtin({"spec", "jobs", "axes"});
    for (const char *name :
         {"fig13", "fig14", "fig15", "ablation", "smoke"}) {
        const SweepSpec spec = specs::byName(name);
        std::string shape;
        for (const SweepAxis &axis : spec.axes) {
            if (!shape.empty())
                shape += " x ";
            shape += axis.label + "(" +
                     std::to_string(axis.values.size()) + ")";
        }
        builtin.addRow(
            {name,
             std::to_string(expandSpec(spec, registry).size()), shape});
    }
    std::cout << builtin.render("builtin specs (lsqca spec <name>)");
    return 0;
}

int
cmdMerge(int argc, char **argv)
{
    std::string outPath;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out")
            outPath = needValue(argc, argv, i);
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown merge option " + arg);
        else if (fsutil::isDirectory(arg)) {
            // A directory contributes its BENCH_*.json files in
            // name order (shard suffixes sort correctly up to 9
            // shards; merge re-orders by shard marker anyway).
            const std::vector<std::string> found =
                fsutil::listFiles(arg, "BENCH_", ".json");
            LSQCA_REQUIRE(!found.empty(),
                          arg + " contains no BENCH_*.json files");
            paths.insert(paths.end(), found.begin(), found.end());
        } else
            paths.push_back(arg);
    }
    if (paths.empty())
        badArg("merge needs at least one BENCH json");

    std::vector<Json> docs;
    docs.reserve(paths.size());
    for (const std::string &path : paths)
        docs.push_back(Json::load(path));
    const Json merged = mergeBenchReports(docs, paths);
    if (outPath.empty()) {
        std::cout << merged.dump();
    } else {
        merged.write(outPath);
        std::cerr << "merged " << paths.size() << " documents -> "
                  << outPath << "\n";
    }
    return 0;
}

int
cmdSpec(int argc, char **argv)
{
    std::string name;
    bool full = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--full")
            full = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown spec option " + arg);
        else if (name.empty())
            name = arg;
        else
            badArg("spec takes exactly one name");
    }
    if (name.empty())
        badArg("spec needs a builtin name");
    std::cout << specs::byName(name, full).toJson().dump();
    return 0;
}

double
parseStragglerFactor(const std::string &text)
{
    try {
        std::size_t used = 0;
        const double factor = std::stod(text, &used);
        LSQCA_REQUIRE(used == text.size() && factor >= 1.0 &&
                          factor <= 1e6,
                      "bad factor");
        return factor;
    } catch (const std::exception &) {
        throw ConfigError("--straggler-factor expects a number in "
                          "[1, 1e6], got \"" +
                          text + "\"");
    }
}

/**
 * Shared flag parsing for submit/resume: everything except the spec
 * argument and --state/--shards/--no-timing semantics, which differ.
 */
void
readServiceFlag(const std::string &arg, int argc, char **argv, int &i,
                service::OrchestratorOptions &options, bool &known)
{
    known = true;
    if (arg == "--workers")
        options.workers = parseCount(needValue(argc, argv, i),
                                     "--workers", 1, 1024);
    else if (arg == "--threads")
        options.threadsPerWorker =
            parseThreadCount(needValue(argc, argv, i));
    else if (arg == "--cache")
        options.cacheDir = needValue(argc, argv, i);
    else if (arg == "--no-cache")
        options.useCache = false;
    else if (arg == "--out")
        options.outDir = needValue(argc, argv, i);
    else if (arg == "--timeout-seconds")
        options.timeoutSeconds =
            parseTimeoutSeconds(needValue(argc, argv, i));
    else if (arg == "--straggler-factor")
        options.stragglerFactor =
            parseStragglerFactor(needValue(argc, argv, i));
    else if (arg == "--max-attempts")
        options.maxAttempts = parseCount(needValue(argc, argv, i),
                                         "--max-attempts", 1, 1000);
    else if (arg == "--no-seed-check")
        options.seedCheck = false;
    else if (arg == "--clock")
        options.clock =
            service::journalClockFromName(needValue(argc, argv, i));
    else if (arg == "--no-journal")
        options.journal = false;
    else if (arg == "--test-die-after")
        // Test hook: shard first attempts die mid-shard (exit 75)
        // after N jobs, exercising the crash/retry path.
        options.firstAttemptExtraArgs = {
            "--die-after", std::to_string(parseCount(
                               needValue(argc, argv, i),
                               "--test-die-after", 0, 1 << 30))};
    else if (arg == "--test-stop-after")
        // Test hook: simulate orchestrator death after N dispatches.
        options.stopAfterDispatches = parseCount(
            needValue(argc, argv, i), "--test-stop-after", 1, 1 << 30);
    else if (arg == "--test-worker-sleep") {
        // Test hook: every worker sleeps before simulating, keeping
        // the campaign verifiably mid-flight for signal tests.
        const std::string seconds = needValue(argc, argv, i);
        parseTimeoutSeconds(seconds);
        options.extraWorkerArgs = {"--test-sleep-seconds", seconds};
    } else
        known = false;
}

/** Render a campaign outcome; the shared exit path of submit/resume. */
int
reportCampaign(const service::CampaignReport &report,
               const std::string &stateDir)
{
    const service::QueueState &queue = report.queue;
    std::cerr << "campaign " << queue.campaign << ": "
              << queue.countWithStatus(service::TaskStatus::Done) << "/"
              << queue.tasks.size() << " shards done ("
              << report.cacheHits << " cached, " << report.spawned
              << " spawned, " << report.retries << " retries, "
              << report.stragglersKilled << " stragglers killed)";
    // Job cache split, shown only when the cache took part (keeps
    // cache-off campaign output byte-identical).
    if (report.jobCacheHits + report.jobsComputed > 0)
        std::cerr << " [" << report.jobCacheHits << " job hits, "
                  << report.jobsComputed << " jobs computed]";
    if (report.complete) {
        std::cerr << " -> " << report.mergedPath << "\n";
        return 0;
    }
    std::cerr << "\n";
    if (report.interrupted) {
        if (report.shutdownSignal != 0) {
            // A SIGINT/SIGTERM drain: workers reaped, queue saved,
            // journal closed with shutdown + done. Conventional
            // fatal-signal exit code so wrappers see the cause.
            std::cerr << "campaign interrupted by signal "
                      << report.shutdownSignal
                      << "; continue with `lsqca resume " << stateDir
                      << "`\n";
            return 128 + report.shutdownSignal;
        }
        std::cerr << "campaign interrupted (test hook); continue with "
                     "`lsqca resume "
                  << stateDir << "`\n";
        return 3;
    }
    for (const service::ShardTask &task : queue.tasks)
        if (task.status == service::TaskStatus::Failed)
            std::cerr << "failed shard " << task.index << "/"
                      << queue.shardCount << " after " << task.attempts
                      << " attempts: " << task.lastError << "\n";
    return 1;
}

/** Unwrap a daemon response, surfacing `"ok": false` as an error. */
const Json &
requireOk(const Json &response)
{
    const Json *ok = response.find("ok");
    if (ok != nullptr && ok->asBool())
        return response;
    const Json *error = response.find("error");
    throw ConfigError("daemon refused: " +
                      (error != nullptr && error->isString()
                           ? error->asString()
                           : response.dump(0)));
}

Json
daemonRequest(const std::string &op)
{
    Json request = Json::object();
    request.set("op", op);
    request.set("proto", daemon::kProtocol);
    return request;
}

/** `lsqca submit --daemon SOCK`: hand the spec to a running daemon. */
int
cmdSubmitDaemon(int argc, char **argv)
{
    std::string specArg;
    std::string socketPath;
    std::int32_t shards = 0;
    std::int32_t weight = 1;
    std::int32_t maxAttempts = 0;
    double workerSleep = 0.0;
    bool noTiming = false;
    bool wait = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--daemon")
            socketPath = needValue(argc, argv, i);
        else if (arg == "--shards")
            shards = parseCount(needValue(argc, argv, i), "--shards",
                                1, 1 << 20);
        else if (arg == "--no-timing")
            noTiming = true;
        else if (arg == "--weight")
            weight = parseCount(needValue(argc, argv, i), "--weight",
                                1, 64);
        else if (arg == "--max-attempts")
            maxAttempts = parseCount(needValue(argc, argv, i),
                                     "--max-attempts", 1, 1000);
        else if (arg == "--wait")
            wait = true;
        else if (arg == "--test-worker-sleep")
            // Test hook: every worker sleeps before simulating, so
            // signals and drains catch the campaign mid-flight.
            workerSleep =
                parseTimeoutSeconds(needValue(argc, argv, i));
        else if (!arg.empty() && arg[0] == '-')
            badArg("submit --daemon supports --shards, --no-timing, "
                   "--weight, --max-attempts, and --wait; pool knobs "
                   "live on `lsqca serve` (got " +
                   arg + ")");
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("submit takes exactly one spec");
    }
    if (specArg.empty())
        badArg("submit needs a spec file");
    LSQCA_REQUIRE(fsutil::exists(specArg),
                  "no such spec file: " + specArg);

    Json request = daemonRequest("submit");
    // The daemon resolves the spec in ITS working directory, so ship
    // an absolute path.
    request.set("spec", std::filesystem::absolute(specArg)
                            .lexically_normal()
                            .string());
    if (shards > 0)
        request.set("shards", shards);
    if (noTiming)
        request.set("no_timing", true);
    if (weight != 1)
        request.set("weight", weight);
    if (maxAttempts > 0)
        request.set("max_attempts", maxAttempts);
    if (workerSleep > 0.0) {
        Json extra = Json::array();
        extra.push(Json("--test-sleep-seconds"));
        extra.push(Json(std::to_string(workerSleep)));
        request.set("extra_worker_args", std::move(extra));
    }

    daemon::Client client(socketPath);
    const Json response = requireOk(client.call(request));
    const std::string name = response.find("campaign")->asString();
    std::cerr << "campaign " << name << " admitted ("
              << response.find("leg")->asString() << ", "
              << response.find("shards")->asInt() << " shards) -> "
              << response.find("state")->asString() << "\n";
    if (!wait)
        return 0;

    // --wait rides the watch stream: the journal replays from its
    // first line and the connection closes once the campaign leaves
    // the daemon, so the LAST `done` event (a resumed campaign's
    // journal holds one per leg) carries the verdict.
    Json watchRequest = daemonRequest("watch");
    watchRequest.set("campaign", name);
    requireOk(client.call(watchRequest));
    bool complete = false;
    std::string line;
    while (client.readLine(line)) {
        try {
            const Json event = Json::parse(line);
            const Json *kind = event.find("event");
            if (kind != nullptr && kind->isString() &&
                kind->asString() == "done") {
                const Json *field = event.find("complete");
                complete = field != nullptr && field->asBool();
            }
        } catch (const std::exception &) {
            // A torn tail can only be the stream's very end.
        }
    }
    std::cerr << "campaign " << name
              << (complete ? " completed" : " ended incomplete")
              << "\n";
    return complete ? 0 : 1;
}

int
cmdSubmit(int argc, char **argv, const char *argv0)
{
    for (int i = 2; i < argc; ++i)
        if (std::strcmp(argv[i], "--daemon") == 0)
            return cmdSubmitDaemon(argc, argv);
    std::string specArg;
    service::OrchestratorOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        bool known = false;
        readServiceFlag(arg, argc, argv, i, options, known);
        if (known)
            continue;
        if (arg == "--state")
            options.stateDir = needValue(argc, argv, i);
        else if (arg == "--shards")
            options.shards = parseCount(needValue(argc, argv, i),
                                        "--shards", 1, 1 << 20);
        else if (arg == "--no-timing")
            options.noTiming = true;
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown submit option " + arg);
        else if (specArg.empty())
            specArg = arg;
        else
            badArg("submit takes exactly one spec");
    }
    if (specArg.empty())
        badArg("submit needs a spec file");
    LSQCA_REQUIRE(specArg.size() > 5 &&
                      specArg.substr(specArg.size() - 5) == ".json",
                  "submit needs a spec *file* (workers re-load it); "
                  "dump a builtin first: lsqca spec " +
                      specArg + " > " + specArg + ".json");

    if (options.stateDir.empty())
        options.stateDir =
            "bench/service/" + SweepSpec::load(specArg).name;
    options.workerExe = proc::selfExecutable(argv0);
    // Graceful shutdown: SIGINT/SIGTERM reaps workers, saves the
    // queue, journals a shutdown event, and exits 128+signal.
    options.handleShutdown = true;
    shutdown::install();
    service::Orchestrator orchestrator(options);
    return reportCampaign(orchestrator.submit(specArg),
                          options.stateDir);
}

int
cmdResume(int argc, char **argv, const char *argv0)
{
    std::string stateDir;
    service::OrchestratorOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        bool known = false;
        readServiceFlag(arg, argc, argv, i, options, known);
        if (known)
            continue;
        if (!arg.empty() && arg[0] == '-')
            badArg("unknown resume option " + arg);
        else if (stateDir.empty())
            stateDir = arg;
        else
            badArg("resume takes exactly one state dir");
    }
    if (stateDir.empty())
        badArg("resume needs a campaign state dir");
    options.stateDir = stateDir;
    options.workerExe = proc::selfExecutable(argv0);
    options.handleShutdown = true;
    shutdown::install();
    service::Orchestrator orchestrator(options);
    return reportCampaign(orchestrator.resume(), stateDir);
}

/** `lsqca status --daemon SOCK [campaign]`: ask a running daemon. */
int
cmdStatusDaemon(const std::string &socketPath,
                const std::string &campaign)
{
    daemon::Client client(socketPath);
    Json request = daemonRequest("status");
    if (!campaign.empty())
        request.set("campaign", campaign);
    const Json response = requireOk(client.call(request));

    if (campaign.empty()) {
        TextTable table({"campaign", "active", "done", "running",
                         "pending", "failed", "shards"});
        if (const Json *rows = response.find("campaigns"))
            for (const Json &row : rows->items())
                table.addRow(
                    {row.find("campaign")->asString(),
                     row.find("active")->asBool() ? "yes" : "no",
                     std::to_string(row.find("done")->asInt()),
                     std::to_string(row.find("running")->asInt()),
                     std::to_string(row.find("pending")->asInt()),
                     std::to_string(row.find("failed")->asInt()),
                     std::to_string(row.find("shards")->asInt())});
        std::cout << table.render("daemon campaigns (" + socketPath +
                                  ")");
        const Json *draining = response.find("draining");
        if (draining != nullptr && draining->asBool())
            std::cout << "daemon is draining (new submissions are "
                         "refused)\n";
        return 0;
    }

    const service::QueueState queue =
        service::QueueState::fromJson(*response.find("queue"));
    TextTable table(
        {"shard", "status", "attempts", "cached", "wall_s", "detail"});
    for (const service::ShardTask &task : queue.tasks)
        table.addRow({std::to_string(task.index) + "/" +
                          std::to_string(queue.shardCount),
                      service::taskStatusName(task.status),
                      std::to_string(task.attempts),
                      task.cached ? "yes" : "no",
                      TextTable::num(task.wallSeconds, 3),
                      task.lastError.empty() ? task.output
                                             : task.lastError});
    std::cout << table.render("campaign " + queue.campaign + " via " +
                              socketPath);
    const Json *active = response.find("active");
    std::cout << "pending "
              << queue.countWithStatus(service::TaskStatus::Pending)
              << ", running "
              << queue.countWithStatus(service::TaskStatus::Running)
              << ", done "
              << queue.countWithStatus(service::TaskStatus::Done)
              << ", failed "
              << queue.countWithStatus(service::TaskStatus::Failed)
              << " of " << queue.shardCount << " shards ("
              << (active != nullptr && active->asBool() ? "active"
                                                        : "inactive")
              << ")\n";
    return 0;
}

int
cmdStatus(int argc, char **argv)
{
    std::string stateDir;
    std::string socketPath;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--daemon")
            socketPath = needValue(argc, argv, i);
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown status option " + arg);
        else if (stateDir.empty())
            stateDir = arg;
        else
            badArg("status takes exactly one state dir");
    }
    if (!socketPath.empty())
        return cmdStatusDaemon(socketPath, stateDir);
    if (stateDir.empty())
        badArg("status needs a campaign state dir");

    const service::QueueState queue =
        service::Orchestrator::inspect(stateDir);

    // The journal (when present) supplies liveness: the age column is
    // seconds since a running shard last produced an event — the
    // at-a-glance straggler check. Tolerates a torn tail (the
    // orchestrator may be appending right now, or died mid-line).
    bool haveJournal = false;
    service::CampaignStats stats;
    const std::string journalPath = service::Journal::pathFor(stateDir);
    if (fsutil::exists(journalPath)) {
        stats = service::CampaignStats::fromFile(journalPath);
        haveJournal = true;
    }
    const double nowWall =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    const auto ageCell = [&](const service::ShardTask &task) {
        if (!haveJournal ||
            task.status != service::TaskStatus::Running)
            return std::string("-");
        const auto wall = stats.lastWallByShard.find(task.index);
        if (wall == stats.lastWallByShard.end())
            return std::string("-"); // logical clock: no wall times
        return TextTable::num(std::max(0.0, nowWall - wall->second),
                              1);
    };

    TextTable table({"shard", "status", "attempts", "cached", "wall_s",
                     "age_s", "detail"});
    for (const service::ShardTask &task : queue.tasks) {
        const std::string detail = task.lastError.empty()
                                       ? task.output
                                       : task.lastError;
        table.addRow({std::to_string(task.index) + "/" +
                          std::to_string(queue.shardCount),
                      service::taskStatusName(task.status),
                      std::to_string(task.attempts),
                      task.cached ? "yes" : "no",
                      TextTable::num(task.wallSeconds, 3),
                      ageCell(task), detail});
    }
    std::cout << table.render("campaign " + queue.campaign + " (" +
                              queue.specPath + ")");
    std::cout << "pending "
              << queue.countWithStatus(service::TaskStatus::Pending)
              << ", running "
              << queue.countWithStatus(service::TaskStatus::Running)
              << ", done "
              << queue.countWithStatus(service::TaskStatus::Done)
              << ", failed "
              << queue.countWithStatus(service::TaskStatus::Failed)
              << " of " << queue.shardCount << " shards\n";
    // Job-granularity split the last cache pass recorded per task.
    // All-zero (cache off, or only empty slices) prints nothing, so
    // pre-job-cache campaigns render unchanged.
    std::int64_t jobsCached = 0;
    std::int64_t jobsComputed = 0;
    for (const service::ShardTask &task : queue.tasks) {
        jobsCached += task.jobsCached;
        jobsComputed += task.jobsComputed;
    }
    if (jobsCached + jobsComputed > 0) {
        const double total =
            static_cast<double>(jobsCached + jobsComputed);
        std::cout << "job cache: " << jobsCached << " spliced, "
                  << jobsComputed << " computed (hit rate "
                  << TextTable::num(
                         100.0 * static_cast<double>(jobsCached) /
                             total,
                         1)
                  << "%)\n";
    }
    if (haveJournal && stats.stragglersKilled > 0)
        std::cout << "warning: " << stats.stragglersKilled
                  << " straggler kill"
                  << (stats.stragglersKilled == 1 ? "" : "s")
                  << " recorded in " << journalPath
                  << " (`lsqca report " << stateDir
                  << "` for causes)\n";
    return 0;
}

int
cmdReport(int argc, char **argv)
{
    std::string stateDir;
    std::string tracePath;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--chrome-trace")
            tracePath = needValue(argc, argv, i);
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown report option " + arg);
        else if (stateDir.empty())
            stateDir = arg;
        else
            badArg("report takes exactly one state dir");
    }
    if (stateDir.empty())
        badArg("report needs a campaign state dir");

    const std::string journalPath = service::Journal::pathFor(stateDir);
    LSQCA_REQUIRE(fsutil::exists(journalPath),
                  stateDir +
                      " holds no campaign journal (events.jsonl); the "
                      "campaign predates journaling or ran with "
                      "--no-journal");
    const service::CampaignStats stats =
        service::CampaignStats::fromFile(journalPath);
    service::renderReport(stats, std::cout);
    if (!tracePath.empty()) {
        jsonl::Export trace(tracePath);
        service::writeChromeTrace(stats, trace.stream());
        trace.publish();
        if (!trace.toStdout())
            std::cerr << "chrome trace: " << stats.spans.size()
                      << " spans -> " << tracePath
                      << " (load in chrome://tracing or Perfetto)\n";
    }
    return 0;
}

int
cmdServe(int argc, char **argv, const char *argv0)
{
    daemon::DaemonOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workers")
            options.workers = parseCount(needValue(argc, argv, i),
                                         "--workers", 1, 1024);
        else if (arg == "--socket")
            options.socketPath = needValue(argc, argv, i);
        else if (arg == "--cache")
            options.cacheDir = needValue(argc, argv, i);
        else if (arg == "--threads")
            options.threadsPerWorker =
                parseThreadCount(needValue(argc, argv, i));
        else if (arg == "--timeout-seconds")
            options.timeoutSeconds =
                parseTimeoutSeconds(needValue(argc, argv, i));
        else if (arg == "--straggler-factor")
            options.stragglerFactor =
                parseStragglerFactor(needValue(argc, argv, i));
        else if (arg == "--max-attempts")
            options.maxAttempts = parseCount(needValue(argc, argv, i),
                                             "--max-attempts", 1,
                                             1000);
        else if (arg == "--poll-seconds")
            options.pollSeconds =
                parseTimeoutSeconds(needValue(argc, argv, i));
        else if (arg == "--clock")
            options.clock = service::journalClockFromName(
                needValue(argc, argv, i));
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown serve option " + arg);
        else if (options.root.empty())
            options.root = arg;
        else
            badArg("serve takes exactly one root dir");
    }
    if (options.root.empty())
        badArg("serve needs a daemon root dir");
    options.workerExe = proc::selfExecutable(argv0);
    daemon::Daemon server(std::move(options));
    std::cerr << "lsqca serve: listening on " << server.socketPath()
              << " (stop with SIGTERM, or `lsqca drain --daemon "
              << server.socketPath() << "`)\n";
    return server.run();
}

int
cmdWatch(int argc, char **argv)
{
    std::string campaign;
    std::string socketPath;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--daemon")
            socketPath = needValue(argc, argv, i);
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown watch option " + arg);
        else if (campaign.empty())
            campaign = arg;
        else
            badArg("watch takes exactly one campaign name");
    }
    if (campaign.empty())
        badArg("watch needs a campaign name");
    if (socketPath.empty())
        badArg("watch needs --daemon <socket>");

    daemon::Client client(socketPath);
    Json request = daemonRequest("watch");
    request.set("campaign", campaign);
    requireOk(client.call(request));
    // lsqca-events-v1 lines, verbatim; the daemon closes the stream
    // once the campaign is inactive and fully forwarded.
    std::string line;
    while (client.readLine(line))
        std::cout << line << "\n";
    return 0;
}

int
cmdCancel(int argc, char **argv)
{
    std::string campaign;
    std::string socketPath;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--daemon")
            socketPath = needValue(argc, argv, i);
        else if (!arg.empty() && arg[0] == '-')
            badArg("unknown cancel option " + arg);
        else if (campaign.empty())
            campaign = arg;
        else
            badArg("cancel takes exactly one campaign name");
    }
    if (campaign.empty())
        badArg("cancel needs a campaign name");
    if (socketPath.empty())
        badArg("cancel needs --daemon <socket>");

    daemon::Client client(socketPath);
    Json request = daemonRequest("cancel");
    request.set("campaign", campaign);
    requireOk(client.call(request));
    std::cerr << "campaign " << campaign
              << " cancelled (queue left resumable)\n";
    return 0;
}

int
cmdDrain(int argc, char **argv)
{
    std::string socketPath;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--daemon")
            socketPath = needValue(argc, argv, i);
        else
            badArg("unknown drain option " + arg);
    }
    if (socketPath.empty())
        badArg("drain needs --daemon <socket>");

    daemon::Client client(socketPath);
    const Json response = requireOk(client.call(daemonRequest("drain")));
    std::cerr << "daemon draining: "
              << response.find("active")->asInt()
              << " active campaign(s) will finish, then the daemon "
                 "exits\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help")
        return usage(std::cout, 0);
    try {
        if (command == "trace")
            return cmdTrace(argc, argv);
        if (command == "run")
            return cmdRun(argc, argv);
        if (command == "render")
            return cmdRender(argc, argv);
        if (command == "emit")
            return cmdEmit(argc, argv);
        if (command == "expand")
            return cmdExpand(argc, argv);
        if (command == "list")
            return cmdList();
        if (command == "merge")
            return cmdMerge(argc, argv);
        if (command == "spec")
            return cmdSpec(argc, argv);
        if (command == "submit")
            return cmdSubmit(argc, argv, argv[0]);
        if (command == "status")
            return cmdStatus(argc, argv);
        if (command == "report")
            return cmdReport(argc, argv);
        if (command == "resume")
            return cmdResume(argc, argv, argv[0]);
        if (command == "serve")
            return cmdServe(argc, argv, argv[0]);
        if (command == "watch")
            return cmdWatch(argc, argv);
        if (command == "cancel")
            return cmdCancel(argc, argv);
        if (command == "drain")
            return cmdDrain(argc, argv);
        std::cerr << "lsqca: unknown command \"" << command << "\"\n";
        return usage(std::cerr, 2);
    } catch (const std::exception &e) {
        // ConfigError and InternalError messages carry the prefix
        // already.
        const std::string_view what = e.what();
        std::cerr << (what.starts_with("lsqca: ") ? "" : "lsqca: ") << what
                  << "\n";
        return 1;
    }
}
