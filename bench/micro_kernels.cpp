/**
 * @file
 * Chrono-based microbenchmarks for the two hot paths this repo's perf
 * work tracks: whole simulate() calls per machine kind, and the
 * statevector amplitude kernels. Emits BENCH_micro.json so successive
 * runs are machine-comparable (tools/bench_diff.py fails CI on >10%
 * regressions).
 *
 * Usage:
 *   micro_kernels [--smoke] [--out <dir>] [--csv <dir>]
 *
 * --smoke shrinks sizes/reps for CI; timings stay comparable between
 * two smoke runs (or two full runs), not across modes.
 */

#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>

#include "arch/line_sam.h"
#include "arch/msf.h"
#include "arch/point_sam.h"
#include "bench_util.h"
#include "circuit/lowering.h"
#include "circuit/statevector.h"
#include "common/fs.h"
#include "common/json.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "geom/grid.h"
#include "service/journal.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

/** Keep @p value live without emitting it (loop bodies under test). */
inline void
doNotOptimize(std::int64_t value)
{
    asm volatile("" : : "g"(value) : "memory");
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-@p reps wall time of one call to @p fn. */
template <typename F>
double
bestOf(int reps, F &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const double t0 = now();
        fn();
        best = std::min(best, now() - t0);
    }
    return best;
}

struct Entry
{
    std::string name;
    double seconds;      ///< best-of wall time per call
    double perUnitNs;    ///< ns per instruction / amplitude / query
    const char *unit;
    std::int64_t units;  ///< instructions/amplitudes/queries per call
    /** JSON metric key; bank kernels use ns_per_loadCost etc. so
     *  tools/bench_diff.py gates each query kind by name. */
    const char *metricKey = "ns_per_unit";
};

} // namespace
} // namespace lsqca

int
main(int argc, char **argv)
{
    using namespace lsqca;
    const auto args = bench::parseArgs(argc, argv);

    const int simReps = args.smoke ? 2 : 5;
    const int svReps = args.smoke ? 3 : 7;
    const std::int32_t adderBits = args.smoke ? 16 : 64;
    const std::int32_t svQubits = args.smoke ? 14 : 20;

    std::vector<Entry> entries;
    auto record = [&](std::string name, double seconds, const char *unit,
                      std::int64_t units,
                      const char *metric_key = "ns_per_unit") {
        entries.push_back({std::move(name), seconds,
                           units > 0 ? seconds * 1e9 /
                                           static_cast<double>(units)
                                     : 0.0,
                           unit, units, metric_key});
    };

    // ---- simulate() per machine kind -----------------------------------
    const Program adder =
        translate(lowerToCliffordT(makeAdder(adderBits)));
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Conventional;
        record("simulate/conventional/adder",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size());
    }
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        record("simulate/point#1/adder",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size());
    }
    {
        // Observer-path overhead probe: same sweep point with one no-op
        // observer attached, so the event-construction + bank-hook cost
        // of the OBSERVE instantiation is tracked next to the plain
        // kernel above (the no-observer path compiles event-free; this
        // pins what turning telemetry ON costs).
        SimOptions opts;
        opts.arch.sam = SamKind::Point;
        SimObserver null_observer;
        opts.observers.push_back(&null_observer);
        record("simulate/point#1/adder/null-observer",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size(),
               "ns_per_instr_null_observer");
    }
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Line;
        opts.arch.banks = 4;
        record("simulate/line#4/adder",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size());
    }
    {
        SimOptions opts;
        opts.arch.sam = SamKind::Line;
        opts.arch.hybridFraction = 0.25;
        record("simulate/hybrid-line#1/adder",
               bestOf(simReps, [&] { simulate(adder, opts); }),
               "instruction", adder.size());
    }

    // ---- bank cost-model kernels ---------------------------------------
    // The point/line simulate() hot path is bound by these queries
    // (ROADMAP "Performance & benchmarking"); tracking them per query
    // kind pins the occupancy-index win and gates future regressions.
    const std::int32_t bankCap = args.smoke ? 99 : 399;
    const int bankReps = args.smoke ? 3 : 7;
    std::vector<QubitId> bankVars(static_cast<std::size_t>(bankCap));
    std::iota(bankVars.begin(), bankVars.end(), 0);
    {
        PointSamBank bank(bankCap, Latencies{});
        bank.placeInitial(bankVars);
        record("bank/point/loadCost",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q)
                              sink += bank.loadCost(q);
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_loadCost");
        // Load/locality-store churn: commitStore (which returns the
        // store's cost, as the simulator charges it) exercises the
        // nearest-empty index and the makeRoomAt hole walk.
        record("bank/point/storeCost",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q) {
                              bank.commitLoad(q);
                              const bool locality = (q & 1) == 0;
                              sink += bank.commitStore(q, locality);
                          }
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_storeCost");
        // In-memory two-qubit positioning, the most frequent point-SAM
        // bank operation on fig14: seek + pick to the port, then the
        // port-stack shift of commitFetchToPort, one call as the
        // simulator makes it.
        record("bank/point/fetchToPort",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q)
                              sink += bank.commitFetchToPort(q);
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_fetchToPort");
    }
    {
        LineSamBank bank(bankCap, Latencies{});
        bank.placeInitial(bankVars);
        record("bank/line/loadCost",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q)
                              sink += bank.loadCost(q);
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_loadCost");
        record("bank/line/storeCost",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (QubitId q = 0; q < bankCap; ++q) {
                              bank.commitLoad(q);
                              const bool locality = (q & 1) == 0;
                              sink += bank.commitStore(q, locality);
                          }
                          doNotOptimize(sink);
                      }),
               "query", bankCap, "ns_per_storeCost");
    }
    {
        // Near-full grid (the SAM operating point): every cell queried
        // as a target against a handful of holes.
        const std::int32_t side = args.smoke ? 16 : 30;
        OccupancyGrid grid(side, side);
        QubitId next = 0;
        for (std::int32_t r = 0; r < side; ++r)
            for (std::int32_t c = 0; c < side; ++c)
                if ((r * side + c) % (side * side / 4) != 1)
                    grid.place(next++, {r, c});
        record("bank/grid/nearestEmpty",
               bestOf(bankReps,
                      [&] {
                          std::int64_t sink = 0;
                          for (std::int32_t r = 0; r < side; ++r)
                              for (std::int32_t c = 0; c < side; ++c)
                                  sink +=
                                      grid.nearestEmpty({r, c})->row;
                          doNotOptimize(sink);
                      }),
               "query", static_cast<std::int64_t>(side) * side,
               "ns_per_nearestEmpty");
    }

    {
        // Magic-state grants: the MSF recurrence once per T gate. Bursts
        // of 16 requests 64 beats apart: each burst drains the buffer
        // and stalls on the factories, each gap refills it.
        const std::int64_t acquiresPerRep = args.smoke ? 20000 : 200000;
        record("msf/acquire",
               bestOf(bankReps,
                      [&] {
                          MagicSource msf(4, 8, 15, 1, /*warm=*/true,
                                          /*instant=*/false);
                          std::int64_t sink = 0;
                          for (std::int64_t i = 0; i < acquiresPerRep; ++i)
                              sink += msf.acquire((i / 16) * 64).end;
                          doNotOptimize(sink);
                      }),
               "acquire", acquiresPerRep, "ns_per_acquire");
    }

    {
        // Journal append cost (docs/METRICS.md): one campaign event
        // through Journal::record — Json build, compact dump, one
        // write(2) on an O_APPEND fd. The orchestrator pays this a
        // handful of times per process spawn; the number here pins
        // that it stays noise next to fork+exec.
        const std::int64_t appendsPerRep = args.smoke ? 2000 : 20000;
        const std::string dir = args.outDir + "/journal_bench";
        fsutil::makeDirs(dir);
        const std::string path = dir + "/events.jsonl";
        record("service/journal/append",
               bestOf(bankReps,
                      [&] {
                          fsutil::removeFile(path);
                          auto journal = service::Journal::open(
                              path, service::JournalClock::Logical);
                          Json fields = Json::object();
                          fields.set("shard", std::int64_t{3});
                          fields.set("attempt", std::int64_t{1});
                          fields.set("worker", std::int64_t{2});
                          for (std::int64_t i = 0; i < appendsPerRep;
                               ++i)
                              journal.record("spawn", fields);
                          doNotOptimize(journal.seq());
                      }),
               "append", appendsPerRep, "ns_per_journal_append");
        fsutil::removeFile(path);
    }

    {
        // Daemon control-plane latency (docs/DAEMON.md): one ping
        // frame over the Unix socket — client write, poll-loop
        // wakeup, parse, dispatch, response write, client read.
        // Bounds how much chatty clients (status pollers, watch
        // streams) can perturb the serve loop's scheduling.
        const std::int64_t pingsPerRep = args.smoke ? 200 : 2000;
        daemon::DaemonOptions options;
        options.root = args.outDir + "/daemon_bench";
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
            record("daemon/ping-roundtrip",
                   bestOf(bankReps,
                          [&] {
                              for (std::int64_t i = 0;
                                   i < pingsPerRep; ++i)
                                  client.call(ping);
                          }),
                   "roundtrip", pingsPerRep,
                   "ns_per_daemon_roundtrip");
        }
        server.requestStop();
        serveThread.join();
    }

    // ---- statevector kernels -------------------------------------------
    const auto amps = std::int64_t{1} << svQubits;
    {
        StateVector sv(svQubits);
        for (std::int32_t q = 0; q < svQubits; ++q)
            sv.applyH(q); // dense superposition
        record("statevector/apply1-H",
               bestOf(svReps, [&] { sv.applyH(svQubits / 2); }),
               "amplitude", amps);
        record("statevector/probabilityOne",
               bestOf(svReps,
                      [&] { (void)sv.probabilityOne(svQubits / 2); }),
               "amplitude", amps / 2);
        record("statevector/applyCX",
               bestOf(svReps, [&] { sv.applyCX(0, svQubits - 1); }),
               "amplitude", amps / 4);
        record("statevector/applyCCX",
               bestOf(svReps,
                      [&] { sv.applyCCX(0, 1, svQubits - 1); }),
               "amplitude", amps / 8);
        record("statevector/norm",
               bestOf(svReps, [&] { (void)sv.norm(); }), "amplitude",
               amps);
    }
    {
        record("statevector/measureZ+collapse",
               bestOf(svReps,
                      [&] {
                          StateVector sv(svQubits);
                          for (std::int32_t q = 0; q < svQubits; ++q)
                              sv.applyH(q);
                          (void)sv.measureZ(0);
                      }),
               "amplitude", amps);
    }

    // ---- report ---------------------------------------------------------
    TextTable table({"kernel", "best wall (s)", "ns/unit", "unit"});
    Json jentries = Json::array();
    for (const auto &entry : entries) {
        table.addRow({entry.name, TextTable::num(entry.seconds, 6),
                      TextTable::num(entry.perUnitNs, 2), entry.unit});
        Json metrics = Json::object();
        metrics.set("wall_seconds", entry.seconds);
        metrics.set(entry.metricKey, entry.perUnitNs);
        metrics.set("units", entry.units);
        Json jentry = Json::object();
        jentry.set("name", entry.name);
        jentry.set("metrics", std::move(metrics));
        jentries.push(std::move(jentry));
    }
    bench::emit(table,
                std::string("Micro kernels (") +
                    (args.smoke ? "smoke" : "full") + " mode)",
                args, "micro_kernels");

    Json doc = Json::object();
    doc.set("bench", "micro");
    doc.set("schema", "lsqca-bench-v1");
    doc.set("mode", args.smoke ? "smoke" : "full");
    doc.set("entries", std::move(jentries));
    const std::string path = writeBenchJson("micro", doc, args.outDir);
    std::cerr << "micro: " << entries.size() << " kernels -> " << path
              << "\n";
    return 0;
}
