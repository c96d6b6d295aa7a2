#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <random>

#include "api/paper_specs.h"
#include "common/error.h"
#include "common/fs.h"
#include "oracle.h"
#include "service/cache.h"
#include "service/orchestrator.h"
#include "service/report.h"

namespace perfbench {

namespace api = lsqca::api;
namespace fs = std::filesystem;
namespace service = lsqca::service;
using Clock = std::chrono::steady_clock;

namespace {

/** Traced passes every traced run makes at least. */
constexpr std::size_t kMinTracedPasses = 2;
/** Warm resubmits per campaign cycle, each under a new partition. */
constexpr std::size_t kWarmPerCycle = 6;
/** A campaign run whose warm median has not settled stops here. */
constexpr double kMaxOvertime = 1.5;
/** Seeds the partition stream apart from the axis-order stream. */
constexpr std::uint64_t kPartitionStream = 0x9e3779b97f4a7c15ULL;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> values)
{
    LSQCA_REQUIRE(!values.empty(), "median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

/** Per-key median over the traced passes. */
LayerValues
medianLayers(const std::vector<LayerValues> &passes)
{
    LayerValues out;
    for (const auto &[name, value] : passes.front()) {
        std::vector<double> values;
        for (const LayerValues &pass : passes)
            values.push_back(pass.at(name));
        out[name] = median(values);
    }
    return out;
}

/**
 * A run's untraced samples, one per pass or campaign cycle: CPU seconds
 * of the pass (or cold submit) and of its set-up, which are scored, and
 * wall seconds, which are reported only (see NOTES.md).
 */
struct Samples
{
    std::vector<double> cpu;
    std::vector<double> setup;
    std::vector<double> wall;
    std::vector<double> warm;
};

/**
 * Fill @p out from the run's samples: the end-to-end medians of an
 * untraced run, or the per-layer medians, tracing overhead and stage
 * shares of a traced run, whose last recorder @p last is written out.
 */
void
finish(const RunOptions &options, Outcome &out, const Samples &samples,
       std::int64_t instructions, const std::vector<LayerValues> &traced,
       const std::vector<double> &tracedWall, const SpanRecorder *last)
{
    out.samples["cpu_s"] = samples.cpu;
    out.samples["setup_s"] = samples.setup;
    out.samples["wall_s"] = samples.wall;
    out.samples["warm_wall_s"] = samples.warm;
    out.walls["wall_s"] = median(samples.wall);
    out.walls["warm_wall_s"] = median(samples.warm);
    if (!options.trace) {
        const double cpu = median(samples.cpu);
        out.endToEnd["cpu_s"] = cpu;
        out.endToEnd["setup_s"] = median(samples.setup);
        out.endToEnd["minstr_per_s"] =
            static_cast<double>(instructions) / cpu / 1e6;
        out.endToEnd["peak_rss_mb"] = peakRssMb();
        return;
    }
    out.samples["traced wall_s"] = tracedWall;
    out.layers = medianLayers(traced);
    out.layers["trace.overhead_s"] = median(tracedWall) - median(samples.wall);
    out.layers["trace.spans"] = static_cast<double>(last->spans().size());
    if (last->lostSpans()) {
        ++out.failed;
        out.problems.push_back("spans lost while tracing");
    }
    // The stages of a pass run one after another, so their shares of
    // the pass's wall show what blocks the result.
    const double passWall = last->total("pass");
    for (const char *stage : {"setup", "sweep.run", "api.serialize",
                              "api.write"})
        out.wallShares.emplace_back(stage, last->total(stage) / passWall);
    fs::create_directories(options.traceDir);
    out.tracePath = options.traceDir + "/" + options.workload + ".seed" +
                    std::to_string(options.seed) + ".trace.json";
    last->writeChromeTrace(out.tracePath, "perfbench " + options.workload);
}

/** Total files and bytes under @p dir. */
std::pair<double, double>
treeSize(const std::string &dir)
{
    double files = 0.0;
    double bytes = 0.0;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file()) {
            files += 1.0;
            bytes += static_cast<double>(entry.file_size());
        }
    return {files, bytes};
}

/**
 * Shard counts for the warm resubmits of one cycle: distinct, none
 * equal to the cold submit's default partition (4 x workers), so every
 * shard fingerprint misses and every job comes from its job entry.
 */
std::vector<std::int32_t>
warmPartitions(std::mt19937_64 &rng)
{
    std::vector<std::int32_t> counts;
    for (std::int32_t n = 2; n <= 40; ++n)
        if (n != 4 * kThreads)
            counts.push_back(n);
    for (std::size_t i = counts.size() - 1; i > 0; --i)
        std::swap(counts[i], counts[rng() % (i + 1)]);
    counts.resize(kWarmPerCycle);
    return counts;
}

/** One campaign's spec, its state and cache, and its reference run. */
struct Cycle
{
    api::SweepSpec spec;
    std::string dir;
    /** The spec as a file: workers re-load it. */
    std::string specPath;
    /** A direct --no-timing run of the spec; every merge must equal it. */
    std::string referenceBytes;
    std::vector<api::ExpandedJob> jobs;
    lsqca::Json document;
};

Cycle
makeCycle(api::SweepSpec spec, const std::string &dir,
          const PassResult &reference)
{
    Cycle cycle;
    cycle.spec = std::move(spec);
    cycle.dir = dir;
    fs::create_directories(dir);
    cycle.specPath = dir + "/" + cycle.spec.name + ".json";
    cycle.spec.toJson().write(cycle.specPath);
    cycle.referenceBytes = lsqca::fsutil::readFile(reference.path);
    cycle.jobs = reference.expanded;
    cycle.document = reference.document;
    return cycle;
}

/** `lsqca submit` of the cycle's spec, in-process, 4 worker processes. */
service::CampaignReport
submit(const Cycle &cycle, const std::string &state, std::int32_t shards,
       const std::string &workerExe)
{
    service::OrchestratorOptions options;
    options.stateDir = cycle.dir + "/" + state;
    options.cacheDir = cycle.dir + "/cache";
    options.workers = kThreads;
    options.shards = shards;
    options.noTiming = true;
    options.workerExe = workerExe;
    return service::Orchestrator(options).submit(cycle.specPath);
}

/**
 * Campaign checks, counted in the error rate: the merged artifact is
 * byte-identical to the direct run, and a warm resubmit serves every
 * job from the job cache and computes none.
 */
void
checkSubmit(const Cycle &cycle, const service::CampaignReport &report,
            bool warm, const std::string &what, Outcome &out)
{
    const auto jobs = static_cast<std::int64_t>(cycle.jobs.size());
    out.attempted += jobs;
    bool ok = report.complete && lsqca::fsutil::readFile(report.mergedPath) ==
                                     cycle.referenceBytes;
    if (warm)
        ok = ok && report.jobCacheHits == jobs && report.jobsComputed == 0;
    if (!ok) {
        out.failed += jobs;
        if (out.problems.size() < 8)
            out.problems.push_back(
                what + ": incomplete, not byte-identical to the direct run, "
                       "or (warm) not served wholly from job entries");
    }
}

/**
 * The service layer inside a traced pass: a cold submit into a fresh
 * cache, with the journal's worker attempts added as child spans, the
 * cache layer's store and fetch calls on the cycle's entries, and warm
 * resubmits under @p partitions. Fills the service.* layer values and
 * returns the cold submit's wall seconds.
 */
double
traceService(const Cycle &cycle, const std::vector<std::int32_t> &partitions,
             const std::string &workerExe, SpanRecorder &recorder,
             LayerValues &layers, Outcome &out)
{
    using Scope = SpanRecorder::Scope;
    service::CampaignReport report;
    std::int64_t coldSpan = 0;
    double coldWall = 0.0;
    {
        const Scope span(recorder, "service.submit_cold");
        coldSpan = span.id();
        const auto t0 = Clock::now();
        report = submit(cycle, "cold", 0, workerExe);
        coldWall = secondsSince(t0);
    }
    checkSubmit(cycle, report, false, "traced cold submit", out);
    const service::CampaignStats stats =
        service::CampaignStats::fromFile(report.journalPath);
    double busy = 0.0;
    for (const service::AttemptSpan &attempt : stats.spans) {
        Span span;
        span.name = "shard " + std::to_string(attempt.shard) + " attempt " +
                    std::to_string(attempt.attempt);
        span.start = stats.wall0 + attempt.start - recorder.unixEpoch();
        span.end = stats.wall0 + attempt.end - recorder.unixEpoch();
        span.id = recorder.nextId();
        span.parent = coldSpan;
        span.tid = 100 + attempt.worker;
        recorder.add(std::move(span));
        busy += attempt.end - attempt.start;
    }
    const double slots = static_cast<double>(stats.workers().size());
    layers["service.spawns"] = static_cast<double>(report.spawned);
    layers["service.attempts"] = static_cast<double>(stats.spans.size());
    layers["service.worker_utilization"] =
        stats.span() > 0.0 && slots > 0.0 ? busy / (stats.span() * slots)
                                          : 0.0;
    const auto [files, bytes] = treeSize(cycle.dir + "/cache");
    layers["service.cache_files"] = files;
    layers["service.cache_bytes"] = bytes;

    const std::vector<std::string> prints =
        api::jobFingerprints(cycle.spec, cycle.jobs, true);
    std::vector<lsqca::Json> manifests;
    for (const api::ExpandedJob &job : cycle.jobs)
        manifests.push_back(api::jobManifest(cycle.spec, job, true));
    const std::vector<lsqca::Json> &entries =
        cycle.document.at("entries").items();
    {
        const service::ResultCache probe(cycle.dir + "/store_probe");
        const Scope store(recorder, "service.cache_store");
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Scope span(recorder, "service.store_job", store.id(),
                             static_cast<std::int64_t>(i));
            probe.storeJob(prints[i], entries[i], manifests[i]);
        }
    }
    std::int64_t mismatched = 0;
    {
        const service::ResultCache cache(cycle.dir + "/cache");
        const Scope fetch(recorder, "service.cache_fetch");
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Scope span(recorder, "service.fetch_job", fetch.id(),
                             static_cast<std::int64_t>(i));
            // Compared as bytes: a cached 0.0 reparses as an integer,
            // and dump() is what the merge writes.
            if (cache.fetchJob(prints[i]).dump(0) != entries[i].dump(0))
                ++mismatched;
        }
    }
    out.attempted += static_cast<std::int64_t>(entries.size());
    if (mismatched > 0) {
        out.failed += mismatched;
        out.problems.push_back("job cache entries differ from the direct run");
    }
    layers["service.cache_store_s"] = recorder.total("service.cache_store");
    layers["service.cache_fetch_s"] = recorder.total("service.cache_fetch");

    double hits = 0.0;
    double lookups = 0.0;
    for (const std::int32_t shards : partitions) {
        service::CampaignReport again;
        {
            const Scope span(recorder, "service.submit_warm");
            again = submit(cycle, "warm" + std::to_string(shards), shards,
                           workerExe);
        }
        checkSubmit(cycle, again, true, "traced warm submit", out);
        hits += static_cast<double>(again.jobCacheHits);
        lookups += static_cast<double>(again.jobCacheHits + again.jobsComputed);
    }
    layers["service.job_cache_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
    layers["service.job_cache_lookups"] = lookups;
    return coldWall;
}

/**
 * Deleting a campaign's ~2000 files slows later fsyncs for seconds, so
 * campaign state stays until the run ends; its deletion is flushed
 * before the run returns.
 */
void
removeWorkDir(const RunOptions &options)
{
    fs::remove_all(options.workDir);
    ::sync();
}

// ---- fig14_full / fig15_full ----------------------------------------------

Outcome
runSweep(const RunOptions &options)
{
    const api::SweepSpec base = workloadSpec(options.workload);
    const Oracle oracle =
        Oracle::load(options.oracleDir + "/" + oracleFile(options.workload));
    LowerBounds bounds;
    {
        Setup setup = setUp(base);
        bounds = computeLowerBounds(setup.jobs, setup.registry, kThreads);
    }
    const std::string outDir = options.workDir + "/bench";

    Outcome out;
    const auto check = [&](const PassResult &pass) {
        out.attempted += pass.jobs;
        out.failed += oracle.check(pass.document, bounds, out.problems);
    };
    std::mt19937_64 rng(options.seed ^ kPartitionStream);
    Samples samples;
    std::vector<double> tracedWall;
    std::vector<LayerValues> traced;
    std::unique_ptr<SpanRecorder> last;
    std::int64_t instructions = 0;

    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const bool enough = samples.wall.size() >= options.minPasses &&
                            (!options.trace ||
                             traced.size() >= kMinTracedPasses);
        if (enough && secondsSince(start) >= options.seconds)
            break;
        // Each pass submits the jobs in its own order: the slowest jobs
        // land at different places in the schedule, and the median over
        // passes covers several orders instead of one.
        api::SweepSpec spec = permuted(base, options.seed, i);
        if (options.trace && i % 2 == 1) {
            auto recorder = std::make_unique<SpanRecorder>();
            LayerValues layers;
            const std::string dir =
                options.workDir + "/traced" + std::to_string(i);
            // --no-timing, so the BENCH bytes are the campaign's reference.
            const PassResult pass = tracedPass(spec, kThreads, dir, true,
                                               *recorder, 0, layers);
            check(pass);
            tracedWall.push_back(pass.wallSeconds);
            // The untraced passes bypass the service layer; the traced
            // ones measure it on this workload's jobs by submitting them
            // as a campaign.
            traceService(makeCycle(std::move(spec), dir, pass),
                         warmPartitions(rng), options.workerExe, *recorder,
                         layers, out);
            traced.push_back(std::move(layers));
            last = std::move(recorder);
            continue;
        }
        const PassResult pass = untracedPass(spec, kThreads, outDir, false);
        check(pass);
        samples.cpu.push_back(pass.cpuSeconds);
        samples.setup.push_back(pass.setupCpuSeconds);
        samples.wall.push_back(pass.wallSeconds);
        samples.warm.push_back(pass.runSeconds);
        instructions = pass.instructions;
    }
    removeWorkDir(options);

    finish(options, out, samples, instructions, traced,
           tracedWall, last.get());
    return out;
}

// ---- campaign_fig14 (not scored: see NOTES.md) -----------------------------

Outcome
runCampaign(const RunOptions &options)
{
    const api::SweepSpec base = workloadSpec(options.workload);
    const Oracle oracle =
        Oracle::load(options.oracleDir + "/" + oracleFile(options.workload));
    Outcome out;
    // The programs, and so the lower bounds, are the same in every order.
    Setup programs = setUp(base);
    const LowerBounds bounds =
        computeLowerBounds(programs.jobs, programs.registry, kThreads);
    std::int64_t instructions = 0;

    // Each cycle runs the spec in its own order; a direct runSpec of it
    // on the warm registry is the reference every merge must equal.
    const auto prepare = [&](std::size_t index) {
        api::SweepSpec spec = permuted(base, options.seed, index);
        const std::string dir =
            options.workDir + "/cycle" + std::to_string(index);
        api::RunSpecOptions direct;
        direct.threads = kThreads;
        direct.outDir = dir + "/direct";
        direct.noTiming = true;
        api::SpecRun run = api::runSpec(spec, programs.registry, direct);
        out.attempted += static_cast<std::int64_t>(run.expanded.size());
        out.failed += oracle.check(run.document, bounds, out.problems);
        instructions = 0;
        for (const lsqca::SimResult &result : run.report.results)
            instructions += result.instructionsSimulated;
        PassResult reference;
        reference.path = run.jsonPath;
        reference.expanded = std::move(run.expanded);
        reference.document = std::move(run.document);
        return makeCycle(std::move(spec), dir, reference);
    };

    std::mt19937_64 rng(options.seed ^ kPartitionStream);
    // The cold submits are the campaign's cpu_s and wall_s samples.
    Samples samples;
    std::vector<double> &warm = samples.warm;
    std::vector<double> tracedCold;
    std::vector<LayerValues> traced;
    std::unique_ptr<SpanRecorder> last;
    const auto warmSettled = [&] {
        // The median of the warm walls holds within a tenth of the
        // median of the first half of them.
        if (warm.size() < 2 * kWarmPerCycle)
            return false;
        const std::vector<double> firstHalf(
            warm.begin(),
            warm.begin() + static_cast<std::ptrdiff_t>(warm.size() / 2));
        const double all = median(warm);
        return std::fabs(median(firstHalf) - all) <= 0.1 * all;
    };

    // Warm-up: the first cold submit of a process pays for loading the
    // worker binary and is checked but not timed.
    {
        const Cycle cycle = prepare(0);
        checkSubmit(cycle, submit(cycle, "cold", 0, options.workerExe), false,
                    "warm-up cold submit", out);
    }

    const auto start = Clock::now();
    for (std::size_t index = 1;; ++index) {
        const bool enough = samples.wall.size() >= options.minPasses &&
                            (!options.trace ||
                             traced.size() >= kMinTracedPasses);
        const double elapsed = secondsSince(start);
        if (enough && elapsed >= options.seconds &&
            (warmSettled() || elapsed >= kMaxOvertime * options.seconds))
            break;
        const Cycle cycle = prepare(index);
        const std::vector<std::int32_t> partitions = warmPartitions(rng);

        if (options.trace && index % 2 == 0) {
            auto recorder = std::make_unique<SpanRecorder>();
            LayerValues layers;
            const PassResult pass =
                tracedPass(cycle.spec, kThreads, cycle.dir + "/traced", true,
                           *recorder, 0, layers);
            out.attempted += pass.jobs;
            out.failed += oracle.check(pass.document, bounds, out.problems);
            if (lsqca::fsutil::readFile(pass.path) != cycle.referenceBytes) {
                out.failed += pass.jobs;
                out.problems.push_back(
                    "traced direct run not byte-identical to runSpec");
            }
            tracedCold.push_back(traceService(cycle, partitions,
                                              options.workerExe, *recorder,
                                              layers, out));
            traced.push_back(std::move(layers));
            last = std::move(recorder);
            continue;
        }

        samples.setup.push_back(setUp(cycle.spec).cpuSeconds);
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        const service::CampaignReport report =
            submit(cycle, "cold", 0, options.workerExe);
        samples.wall.push_back(secondsSince(t0));
        samples.cpu.push_back(cpuSeconds() - c0);
        checkSubmit(cycle, report, false, "cold submit", out);
        for (const std::int32_t shards : partitions) {
            const auto w0 = Clock::now();
            const service::CampaignReport again = submit(
                cycle, "warm" + std::to_string(shards), shards,
                options.workerExe);
            warm.push_back(secondsSince(w0));
            checkSubmit(cycle, again, true,
                        "warm submit, " + std::to_string(shards) + " shards",
                        out);
        }
    }
    removeWorkDir(options);

    finish(options, out, samples, instructions, traced,
           tracedCold, last.get());
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig14_full", "fig15_full",
                                                   "campaign_fig14"};
    return names;
}

api::SweepSpec
workloadSpec(const std::string &workload)
{
    if (workload == "fig14_full")
        return api::specs::fig14(true);
    if (workload == "fig15_full")
        return api::specs::fig15(true);
    if (workload == "campaign_fig14")
        return api::specs::fig14(false);
    throw lsqca::ConfigError("unknown workload \"" + workload + "\"");
}

std::string
oracleFile(const std::string &workload)
{
    return workload == "campaign_fig14" ? "fig14.tsv" : workload + ".tsv";
}

api::SweepSpec
permuted(api::SweepSpec spec, std::uint64_t seed, std::uint64_t pass)
{
    std::seed_seq sequence{seed & 0xffffffffU, seed >> 32, pass & 0xffffffffU,
                           pass >> 32};
    std::mt19937_64 rng(sequence);
    for (api::SweepAxis &axis : spec.axes)
        for (std::size_t i = axis.values.size(); i > 1; --i)
            std::swap(axis.values[i - 1], axis.values[rng() % i]);
    return spec;
}

Outcome
runWorkload(const RunOptions &options)
{
    if (options.workload == "campaign_fig14")
        return runCampaign(options);
    return runSweep(options);
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

} // namespace perfbench
