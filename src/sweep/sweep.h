#ifndef LSQCA_SWEEP_SWEEP_H
#define LSQCA_SWEEP_SWEEP_H

/**
 * @file
 * Parallel configuration-sweep engine.
 *
 * The paper's headline figures sweep many (program, architecture)
 * points; each simulate() call is independent, so the engine fans a job
 * vector across a fixed thread pool and collects results *in
 * submission order* — a parallel sweep is bit-identical to the serial
 * loop it replaces, regardless of worker count. A JSON report
 * (`bench/out/BENCH_<name>.json`) records per-job metrics plus
 * wall-clock so regressions are machine-checkable (tools/bench_diff.py).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "isa/program.h"
#include "sim/simulator.h"

namespace lsqca {

/** One sweep point: a program run under one machine configuration. */
struct SweepJob
{
    /** Stable identifier, e.g. "adder/point#1/f2" (JSON entry key). */
    std::string name;
    /** Borrowed; must outlive the SweepEngine::run call. */
    const Program *program = nullptr;
    SimOptions options;
};

/** Outcome of a sweep: results aligned with the submitted job vector. */
struct SweepReport
{
    std::vector<SimResult> results;  ///< submission order
    std::vector<double> jobSeconds;  ///< per-job wall time
    double wallSeconds = 0.0;        ///< whole-sweep wall time
    std::int32_t threads = 1;        ///< workers actually used
};

/** Engine options. */
struct SweepOptions
{
    /** Worker threads; 0 = hardware_concurrency. */
    std::int32_t threads = 0;
    /**
     * Optional observability registry (must outlive the run call).
     * When attached, each run() accounts `sweep.jobs`,
     * `sweep.job_wall_seconds`, `sweep.queue_wait_seconds`,
     * per-worker `sweep.worker.<w>.busy_seconds` gauges, and the
     * pool's queue metrics (docs/METRICS.md). Detached (the default),
     * the engine takes no extra clock reads and results — and BENCH
     * bytes — are exactly those of an uninstrumented run.
     */
    metrics::Registry *metrics = nullptr;
};

/** Fans simulate() jobs across a fixed thread pool. */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions options = {});

    /**
     * Run every job and return results in submission order. Exceptions
     * from any job propagate to the caller after all workers settle.
     */
    SweepReport run(const std::vector<SweepJob> &jobs) const;

    std::int32_t threads() const { return threads_; }

  private:
    std::int32_t threads_;
    metrics::Registry *metrics_;
};

/**
 * Build ONE BENCH entry — `{name, metrics{...}, [breakdown]}` — for a
 * simulated job: cpi / exec_beats / memory_beats / magic_stall_beats /
 * density / wall_seconds metrics, plus a "breakdown" array when the
 * job collected one (SimOptions::recordBreakdown). This is the unit
 * the job-granularity result cache stores and splices, so a document
 * assembled from cached entries is byte-identical to one built from a
 * fresh simulation (the Json layer guarantees
 * dump(parse(dump(x))) == dump(x)).
 */
Json benchEntry(const std::string &name, const SimResult &result,
                double jobSeconds);

/**
 * Assemble the standard BENCH document from pre-built entries (fresh
 * from benchEntry() or spliced back out of the job cache). @p v2
 * stamps the lsqca-bench-v2 schema, which documents carrying
 * breakdowns need; plain sweeps emit byte-identical lsqca-bench-v1
 * (docs/OBSERVERS.md). api::sliceDocument picks @p v2 for a sweep
 * slice.
 */
Json benchDocument(const std::string &benchName, Json entries,
                   std::int32_t threads, double wallSeconds, bool v2);

/**
 * Write @p doc to `<outDir>/BENCH_<benchName>.json` and return the
 * path. @p outDir defaults to "bench/out" under the current directory.
 */
std::string writeBenchJson(const std::string &benchName, const Json &doc,
                           const std::string &outDir = "bench/out");

} // namespace lsqca

#endif // LSQCA_SWEEP_SWEEP_H
