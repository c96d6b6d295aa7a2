#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/**
 * @file
 * The benchmark's workloads (why each was chosen: NOTES.md).
 *
 *  - fig14_full: api::specs::fig14(full=true), 1785 jobs, 4 threads.
 *  - fig15_full: api::specs::fig15(full=true), 135 jobs, 4 threads.
 *  - campaign_fig14: cold `submit` of the default fig14 spec with 4
 *    worker processes into a fresh cache, then warm resubmits under
 *    other shard partitions (a closed loop with one client).
 *
 * The seed permutes the value order of every spec axis (job submission
 * order changes, the job set does not) and picks the warm-phase shard
 * partitions, so every seed must reproduce the recorded oracle.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/spec.h"
#include "passes.h"

namespace perfbench {

/** Sweep threads and campaign worker processes. */
inline constexpr std::int32_t kThreads = 4;

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Untraced passes (or campaign cycles) the run makes at least. */
    std::size_t minPasses = 3;
    bool trace = false;
    /** Scratch space for BENCH files, campaign state and caches. */
    std::string workDir;
    /** Where the traced run writes its Chrome/Perfetto trace. */
    std::string traceDir;
    /** Recorded digests: <oracleDir>/<spec name>[_full].tsv. */
    std::string oracleDir;
    /** The `lsqca` binary campaigns spawn as workers. */
    std::string workerExe;
};

struct Outcome
{
    /** Untraced run: end-to-end metrics (medians over the run). */
    std::map<std::string, double> endToEnd;
    /** Median wall seconds of the untraced passes; reported, not scored. */
    std::map<std::string, double> walls;
    /** Traced run: per-layer metrics (medians over traced passes). */
    LayerValues layers;
    /** Per-pass samples behind the medians, for the report. */
    std::map<std::string, std::vector<double>> samples;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> problems;
    std::string tracePath;
    /** Traced run: each stage's share of the last traced pass's wall. */
    std::vector<std::pair<std::string, double>> wallShares;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The spec a workload runs before permutation (for the oracle). */
lsqca::api::SweepSpec workloadSpec(const std::string &workload);

/** The oracle file of a workload's spec. */
std::string oracleFile(const std::string &workload);

/** Permute every axis's value order; each (seed, pass) its own order. */
lsqca::api::SweepSpec permuted(lsqca::api::SweepSpec spec,
                               std::uint64_t seed, std::uint64_t pass);

/** Run one workload for options.seconds. @throws on setup failure. */
Outcome runWorkload(const RunOptions &options);

/** Peak resident set of this process and its reaped children, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
