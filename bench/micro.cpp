/**
 * @file
 * Micro benchmarks of the hot paths on google-benchmark: whole
 * simulate() calls per machine kind, the bank cost-model queries, the
 * occupancy grid, the MSF model, the program build (lowering,
 * translation), the journal and daemon control paths, and the
 * statevector kernels.
 *
 * Each kernel times one call per iteration (a call makes `units`
 * queries, instructions, amplitudes, ...), runs 5 repetitions and
 * reports their minimum. The file reporter writes that minimum as a
 * lsqca-bench-v1 document, the one tools/bench_diff.py compares:
 *
 *   micro --benchmark_min_time=0.05 \
 *         --benchmark_out=bench/out/BENCH_micro.json
 *   python3 tools/bench_diff.py old/BENCH_micro.json \
 *         bench/out/BENCH_micro.json
 *
 * Every other flag is google-benchmark's own (--benchmark_filter, ...).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/line_sam.h"
#include "arch/msf.h"
#include "arch/point_sam.h"
#include "circuit/lowering.h"
#include "circuit/statevector.h"
#include "common/fs.h"
#include "common/json.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "geom/grid.h"
#include "service/journal.h"
#include "sim/simulator.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

constexpr std::int32_t kBankCapacity = 399;
constexpr std::int32_t kStateQubits = 20;

/** A fresh directory under the system temp dir, removed when done. */
class TempDir
{
  public:
    TempDir()
        : path_((std::filesystem::temp_directory_path() /
                 "lsqca-micro-XXXXXX")
                    .string())
    {
        if (mkdtemp(path_.data()) == nullptr)
            throw std::runtime_error("micro: cannot create " + path_);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
    ~TempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Run @p call once per iteration; each call covers @p units units. */
template <typename F>
void
timeCalls(benchmark::State &state, std::int64_t units, F &&call)
{
    for (auto _ : state)
        call();
    state.counters["units"] = static_cast<double>(units);
}

// ---- simulate() per machine kind -------------------------------------------

const Program &
adderProgram()
{
    static const Program program =
        translate(lowerToCliffordT(makeAdder(64)));
    return program;
}

void
simulateAdder(benchmark::State &state, const SimOptions &opts)
{
    const Program &adder = adderProgram();
    timeCalls(state, adder.size(),
              [&] { benchmark::DoNotOptimize(simulate(adder, opts)); });
}

SimOptions
machine(SamKind sam, std::int32_t banks = 1, double hybridFraction = 0.0)
{
    SimOptions opts;
    opts.arch.sam = sam;
    opts.arch.banks = banks;
    opts.arch.hybridFraction = hybridFraction;
    return opts;
}

/**
 * Observer-path overhead: the point#1 kernel with one no-op observer
 * attached, so the event-construction and bank-hook cost of the
 * observed instantiation is tracked next to the plain kernel (the
 * no-observer path compiles event-free).
 */
void
simulateNullObserver(benchmark::State &state)
{
    SimObserver null_observer;
    SimOptions opts = machine(SamKind::Point);
    opts.observers.push_back(&null_observer);
    simulateAdder(state, opts);
}

// ---- bank cost-model kernels -----------------------------------------------
// The point/line simulate() hot path is bound by these queries
// (ROADMAP "Performance & benchmarking"), tracked per query kind.

template <typename Bank>
Bank
filledBank()
{
    std::vector<QubitId> vars(kBankCapacity);
    std::iota(vars.begin(), vars.end(), 0);
    Bank bank(kBankCapacity, Latencies{});
    bank.placeInitial(vars);
    return bank;
}

template <typename Bank>
void
bankLoadCost(benchmark::State &state)
{
    Bank bank = filledBank<Bank>();
    timeCalls(state, kBankCapacity, [&] {
        std::int64_t sink = 0;
        for (QubitId q = 0; q < kBankCapacity; ++q)
            sink += bank.loadCost(q);
        benchmark::DoNotOptimize(sink);
    });
}

/**
 * Load/locality-store churn: commitStore (which returns the store's
 * cost, as the simulator charges it) exercises the nearest-empty index
 * and the makeRoomAt hole walk.
 */
template <typename Bank>
void
bankStoreCost(benchmark::State &state)
{
    Bank bank = filledBank<Bank>();
    timeCalls(state, kBankCapacity, [&] {
        std::int64_t sink = 0;
        for (QubitId q = 0; q < kBankCapacity; ++q) {
            bank.commitLoad(q);
            sink += bank.commitStore(q, /*locality=*/(q & 1) == 0);
        }
        benchmark::DoNotOptimize(sink);
    });
}

/**
 * In-memory two-qubit positioning, the most frequent point-SAM bank
 * operation on fig14: seek and pick to the port, then the port-stack
 * shift, one commitFetchToPort call as the simulator makes it.
 */
void
pointFetchToPort(benchmark::State &state)
{
    PointSamBank bank = filledBank<PointSamBank>();
    timeCalls(state, kBankCapacity, [&] {
        std::int64_t sink = 0;
        for (QubitId q = 0; q < kBankCapacity; ++q)
            sink += bank.commitFetchToPort(q);
        benchmark::DoNotOptimize(sink);
    });
}

/**
 * Near-full grid (the SAM operating point): every cell queried as a
 * target against four holes.
 */
void
gridNearestEmpty(benchmark::State &state)
{
    constexpr std::int32_t side = 30;
    OccupancyGrid grid(side, side);
    QubitId next = 0;
    for (std::int32_t r = 0; r < side; ++r)
        for (std::int32_t c = 0; c < side; ++c)
            if ((r * side + c) % (side * side / 4) != 1)
                grid.place(next++, {r, c});
    timeCalls(state, side * side, [&] {
        std::int64_t sink = 0;
        for (std::int32_t r = 0; r < side; ++r)
            for (std::int32_t c = 0; c < side; ++c)
                sink += grid.nearestEmpty({r, c})->row;
        benchmark::DoNotOptimize(sink);
    });
}

/**
 * The sliding-puzzle insertion on a 20x20 grid with one hole: each
 * call walks the hole from the far corner to the middle of the first
 * column and back, 28 steps each way.
 */
void
gridMakeRoomAt(benchmark::State &state)
{
    OccupancyGrid grid(20, 20);
    for (QubitId q = 0; q < 399; ++q)
        grid.place(q, {q / 20, q % 20});
    timeCalls(state, 2, [&] {
        benchmark::DoNotOptimize(grid.makeRoomAt({10, 0}));
        benchmark::DoNotOptimize(grid.makeRoomAt({19, 19}));
    });
}

/**
 * Magic-state grants: the MSF recurrence once per T gate. Bursts of
 * 16 requests 64 beats apart: each burst drains the buffer and stalls
 * on the factories, each gap refills it.
 */
void
msfAcquire(benchmark::State &state)
{
    constexpr std::int64_t acquires = 200000;
    timeCalls(state, acquires, [&] {
        MagicSource msf(4, 8, 15, 1, /*warm=*/true, /*instant=*/false);
        std::int64_t sink = 0;
        for (std::int64_t i = 0; i < acquires; ++i)
            sink += msf.acquire((i / 16) * 64).end;
        benchmark::DoNotOptimize(sink);
    });
}

// ---- program build ---------------------------------------------------------

void
translateAdder(benchmark::State &state)
{
    const Circuit lowered = lowerToCliffordT(makeAdder(64));
    timeCalls(state, lowered.size(),
              [&] { benchmark::DoNotOptimize(translate(lowered)); });
}

void
lowerSelect(benchmark::State &state)
{
    const Circuit select = makeSelect({5, 0});
    timeCalls(state, select.size(), [&] {
        benchmark::DoNotOptimize(lowerToCliffordT(select));
    });
}

// ---- service and daemon control paths --------------------------------------

/**
 * Journal append cost (docs/METRICS.md): one campaign event through
 * Journal::record — Json build, compact dump, one write(2) on an
 * O_APPEND fd. The orchestrator pays this a handful of times per
 * process spawn; it must stay noise next to fork+exec.
 */
void
journalAppend(benchmark::State &state)
{
    constexpr std::int64_t appends = 20000;
    const TempDir dir;
    const std::string path = dir.path() + "/events.jsonl";
    timeCalls(state, appends, [&] {
        fsutil::removeFile(path);
        auto journal =
            service::Journal::open(path, service::JournalClock::Logical);
        Json fields = Json::object();
        fields.set("shard", std::int64_t{3});
        fields.set("attempt", std::int64_t{1});
        fields.set("worker", std::int64_t{2});
        for (std::int64_t i = 0; i < appends; ++i)
            journal.record("spawn", fields);
        benchmark::DoNotOptimize(journal.seq());
    });
}

/**
 * Daemon control-plane latency (docs/DAEMON.md): one ping frame over
 * the Unix socket — client write, poll-loop wakeup, parse, dispatch,
 * response write, client read. Bounds how much chatty clients (status
 * pollers, watch streams) can perturb the serve loop's scheduling.
 */
void
daemonPing(benchmark::State &state)
{
    constexpr std::int64_t pings = 2000;
    const TempDir dir;
    daemon::DaemonOptions options;
    options.root = dir.path() + "/daemon";
    options.workers = 1;
    // No campaigns are submitted; the worker binary is never run.
    options.workerExe = "unused";
    options.handleSignals = false;
    options.pollSeconds = 0.001;
    daemon::Daemon server(std::move(options));
    std::thread serveThread([&] { server.run(); });
    while (!fsutil::exists(server.socketPath()))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
        daemon::Client client(server.socketPath());
        Json ping = Json::object();
        ping.set("op", "ping");
        timeCalls(state, pings, [&] {
            for (std::int64_t i = 0; i < pings; ++i)
                client.call(ping);
        });
    }
    server.requestStop();
    serveThread.join();
}

// ---- statevector kernels ---------------------------------------------------

/** The dense superposition the in-place kernels keep working on. */
StateVector &
denseState()
{
    static StateVector sv = [] {
        StateVector s(kStateQubits);
        for (std::int32_t q = 0; q < kStateQubits; ++q)
            s.applyH(q);
        return s;
    }();
    return sv;
}

constexpr std::int64_t kAmplitudes = std::int64_t{1} << kStateQubits;
constexpr std::int32_t kMidQubit = kStateQubits / 2;
constexpr std::int32_t kLastQubit = kStateQubits - 1;

template <typename F>
void
onDenseState(benchmark::State &state, std::int64_t amplitudes, F &&kernel)
{
    StateVector &sv = denseState();
    timeCalls(state, amplitudes, [&] { kernel(sv); });
}

void
measureAndCollapse(benchmark::State &state)
{
    timeCalls(state, kAmplitudes, [] {
        StateVector sv(kStateQubits);
        for (std::int32_t q = 0; q < kStateQubits; ++q)
            sv.applyH(q);
        benchmark::DoNotOptimize(sv.measureZ(0));
    });
}

// ---- registry and report ---------------------------------------------------

struct Kernel
{
    /** Entry name in BENCH_micro.json. */
    const char *name;
    /** The entry's ns-per-unit key; bank kernels name their query
     *  kind, so tools/bench_diff.py gates each one by name. */
    const char *metricKey;
    void (*run)(benchmark::State &);
};

const std::vector<Kernel> &
kernels()
{
    static const std::vector<Kernel> all = {
        {"simulate/conventional/adder", "ns_per_unit",
         [](benchmark::State &s) {
             simulateAdder(s, machine(SamKind::Conventional));
         }},
        {"simulate/point#1/adder", "ns_per_unit",
         [](benchmark::State &s) {
             simulateAdder(s, machine(SamKind::Point));
         }},
        {"simulate/point#1/adder/null-observer",
         "ns_per_instr_null_observer", simulateNullObserver},
        {"simulate/line#4/adder", "ns_per_unit",
         [](benchmark::State &s) {
             simulateAdder(s, machine(SamKind::Line, 4));
         }},
        {"simulate/hybrid-line#1/adder", "ns_per_unit",
         [](benchmark::State &s) {
             simulateAdder(s, machine(SamKind::Line, 1, 0.25));
         }},
        {"bank/point/loadCost", "ns_per_loadCost",
         bankLoadCost<PointSamBank>},
        {"bank/point/storeCost", "ns_per_storeCost",
         bankStoreCost<PointSamBank>},
        {"bank/point/fetchToPort", "ns_per_fetchToPort",
         pointFetchToPort},
        {"bank/line/loadCost", "ns_per_loadCost",
         bankLoadCost<LineSamBank>},
        {"bank/line/storeCost", "ns_per_storeCost",
         bankStoreCost<LineSamBank>},
        {"bank/grid/nearestEmpty", "ns_per_nearestEmpty",
         gridNearestEmpty},
        {"grid/makeRoomAt", "ns_per_makeRoomAt", gridMakeRoomAt},
        {"msf/acquire", "ns_per_acquire", msfAcquire},
        {"translate/adder", "ns_per_unit", translateAdder},
        {"lower/select", "ns_per_unit", lowerSelect},
        {"service/journal/append", "ns_per_journal_append",
         journalAppend},
        {"daemon/ping-roundtrip", "ns_per_daemon_roundtrip", daemonPing},
        {"statevector/apply1-H", "ns_per_unit",
         [](benchmark::State &s) {
             onDenseState(s, kAmplitudes,
                          [](StateVector &sv) { sv.applyH(kMidQubit); });
         }},
        {"statevector/probabilityOne", "ns_per_unit",
         [](benchmark::State &s) {
             onDenseState(s, kAmplitudes / 2, [](StateVector &sv) {
                 benchmark::DoNotOptimize(sv.probabilityOne(kMidQubit));
             });
         }},
        {"statevector/applyCX", "ns_per_unit",
         [](benchmark::State &s) {
             onDenseState(s, kAmplitudes / 4,
                          [](StateVector &sv) { sv.applyCX(0, kLastQubit); });
         }},
        {"statevector/applyCCX", "ns_per_unit",
         [](benchmark::State &s) {
             onDenseState(s, kAmplitudes / 8, [](StateVector &sv) {
                 sv.applyCCX(0, 1, kLastQubit);
             });
         }},
        {"statevector/norm", "ns_per_unit",
         [](benchmark::State &s) {
             onDenseState(s, kAmplitudes, [](StateVector &sv) {
                 benchmark::DoNotOptimize(sv.norm());
             });
         }},
        {"statevector/measureZ+collapse", "ns_per_unit",
         measureAndCollapse},
    };
    return all;
}

/**
 * Writes each kernel's `min` aggregate as a lsqca-bench-v1 entry:
 * `wall_seconds` per call, the kernel's ns-per-unit key and `units`
 * per call.
 */
class BenchJsonReporter : public benchmark::BenchmarkReporter
{
  public:
    bool ReportContext(const Context &) override { return true; }

    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Aggregate ||
                run.aggregate_name != "min" || run.error_occurred)
                continue;
            const std::string &name = run.run_name.function_name;
            const auto kernel = std::find_if(
                kernels().begin(), kernels().end(),
                [&](const Kernel &k) { return k.name == name; });
            const double seconds =
                run.GetAdjustedRealTime() /
                benchmark::GetTimeUnitMultiplier(run.time_unit);
            const auto units = static_cast<std::int64_t>(
                run.counters.at("units").value);
            Json metrics = Json::object();
            metrics.set("wall_seconds", seconds);
            metrics.set(kernel->metricKey,
                        seconds * 1e9 / static_cast<double>(units));
            metrics.set("units", units);
            Json entry = Json::object();
            entry.set("name", name);
            entry.set("metrics", std::move(metrics));
            entries_.push(std::move(entry));
        }
    }

    void Finalize() override
    {
        Json doc = Json::object();
        doc.set("bench", "micro");
        doc.set("schema", "lsqca-bench-v1");
        doc.set("entries", std::move(entries_));
        GetOutputStream() << doc.dump(2) << "\n";
    }

  private:
    Json entries_ = Json::array();
};

double
minimum(const std::vector<double> &values)
{
    return *std::min_element(values.begin(), values.end());
}

} // namespace
} // namespace lsqca

int
main(int argc, char **argv)
{
    using namespace lsqca;
    // google-benchmark refuses a file reporter without --benchmark_out;
    // a run without one prints to the console only.
    const bool toFile =
        std::any_of(argv + 1, argv + argc, [](const char *arg) {
            return std::string_view(arg).starts_with("--benchmark_out=");
        });
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 2;
    for (const Kernel &kernel : kernels())
        benchmark::RegisterBenchmark(kernel.name, kernel.run)
            ->Repetitions(5)
            ->ComputeStatistics("min", minimum)
            ->ReportAggregatesOnly()
            ->UseRealTime();
    BenchJsonReporter fileReporter;
    benchmark::RunSpecifiedBenchmarks(nullptr,
                                      toFile ? &fileReporter : nullptr);
    benchmark::Shutdown();
    return 0;
}
