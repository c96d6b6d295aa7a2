#ifndef PERFBENCH_PASSES_H
#define PERFBENCH_PASSES_H

/**
 * @file
 * One pass of a sweep: the spec expanded, every distinct program built,
 * every job simulated, and the BENCH document serialized and written.
 *
 * The untraced pass calls the public entry points the CLI uses
 * (api::expandSpec, BenchmarkRegistry::program, api::runSpec) with
 * tracing off; it gives the end-to-end numbers. The traced pass drives
 * the same layers one public call at a time (expandSpec; synthesize,
 * lowerToCliffordT and translate per program; simulate per job on a
 * sweep-module ThreadPool that hands out jobs the way SweepEngine does;
 * benchEntry, benchDocument and dump; the file write) and wraps a span
 * around each call. It gives the per-layer numbers.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"
#include "common/json.h"
#include "spans.h"

namespace perfbench {

/** Per-layer metric values by name (see kLayerMetrics in main.cpp). */
using LayerValues = std::map<std::string, double>;

/** The programs of a spec built in a fresh registry: the set-up. */
struct Setup
{
    lsqca::api::BenchmarkRegistry registry;
    std::vector<lsqca::api::ExpandedJob> jobs;
    /** Wall and CPU seconds of the set-up (it runs on one thread). */
    double seconds = 0.0;
    double cpuSeconds = 0.0;
};

/**
 * CPU seconds (user + system) this process and its reaped children have
 * used so far. CPU time leaves out the time a thread waits for a core,
 * including time the hypervisor gives its core to another guest, so it
 * holds steadier than wall time on a shared host.
 */
double cpuSeconds();

/** Expand @p spec and build every distinct program in a fresh registry. */
Setup setUp(const lsqca::api::SweepSpec &spec);

/** What one pass produced. */
struct PassResult
{
    /** The jobs in submission order, and their BENCH document. */
    std::vector<lsqca::api::ExpandedJob> expanded;
    lsqca::Json document;
    /** Where the BENCH file was written. */
    std::string path;
    /** Set-up (expand + build), the rest of the pass, and the whole pass. */
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    double wallSeconds = 0.0;
    /** CPU seconds of the set-up and of the whole pass (untraced only). */
    double setupCpuSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::int64_t instructions = 0;
    std::int64_t jobs = 0;
};

/** The untraced pass: setUp() then api::runSpec on the warm registry. */
PassResult untracedPass(const lsqca::api::SweepSpec &spec,
                        std::int32_t threads, const std::string &outDir,
                        bool noTiming);

/**
 * The traced pass: the same work as untracedPass, one layer call at a
 * time, each inside a span recorded into @p recorder under @p parent.
 * Its per-layer metrics land in @p layers.
 */
PassResult tracedPass(const lsqca::api::SweepSpec &spec,
                      std::int32_t threads, const std::string &outDir,
                      bool noTiming, SpanRecorder &recorder,
                      std::int64_t parent, LayerValues &layers);

} // namespace perfbench

#endif // PERFBENCH_PASSES_H
