#include "passes.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <unordered_map>

#include "circuit/lowering.h"
#include "common/error.h"
#include "common/stats.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "sweep/thread_pool.h"
#include "translate/translate.h"

namespace perfbench {

namespace api = lsqca::api;
using lsqca::Json;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The registry's memo key: one program per (bench, params, translate). */
std::string
programKey(const api::ExpandedJob &job)
{
    return job.bench + "|" + job.params.dump(0) + "|" +
           (job.translate.inMemoryOps ? "mem" : "ldst") + "|cr" +
           std::to_string(job.translate.crSlots);
}

const char *
bankLayer(lsqca::SamKind kind)
{
    switch (kind) {
      case lsqca::SamKind::Point:
        return "arch.point_sam";
      case lsqca::SamKind::Line:
        return "arch.line_sam";
      case lsqca::SamKind::Conventional:
        return "arch.conventional";
    }
    return "arch.unknown";
}

} // namespace

double
cpuSeconds()
{
    const auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    double total = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage usage{};
        getrusage(who, &usage);
        total += seconds(usage.ru_utime) + seconds(usage.ru_stime);
    }
    return total;
}

Setup
setUp(const api::SweepSpec &spec)
{
    const auto t0 = Clock::now();
    const double c0 = cpuSeconds();
    Setup setup{api::BenchmarkRegistry::paper(), {}, 0.0, 0.0};
    setup.jobs = api::expandSpec(spec, setup.registry);
    for (const api::ExpandedJob &job : setup.jobs)
        setup.registry.program(job.bench, job.params, job.translate);
    setup.seconds = secondsSince(t0);
    setup.cpuSeconds = cpuSeconds() - c0;
    return setup;
}

PassResult
untracedPass(const api::SweepSpec &spec, std::int32_t threads,
             const std::string &outDir, bool noTiming)
{
    const auto t0 = Clock::now();
    const double c0 = cpuSeconds();
    Setup setup = setUp(spec);
    api::RunSpecOptions options;
    options.threads = threads;
    options.outDir = outDir;
    options.noTiming = noTiming;
    api::SpecRun run = api::runSpec(spec, setup.registry, options);

    PassResult pass;
    pass.wallSeconds = secondsSince(t0);
    pass.cpuSeconds = cpuSeconds() - c0;
    pass.setupSeconds = setup.seconds;
    pass.setupCpuSeconds = setup.cpuSeconds;
    pass.runSeconds = pass.wallSeconds - setup.seconds;
    pass.expanded = std::move(run.expanded);
    pass.document = std::move(run.document);
    pass.path = run.jsonPath;
    for (const lsqca::SimResult &result : run.report.results)
        pass.instructions += result.instructionsSimulated;
    pass.jobs = static_cast<std::int64_t>(run.report.results.size());
    return pass;
}

PassResult
tracedPass(const api::SweepSpec &spec, std::int32_t threads,
           const std::string &outDir, bool noTiming, SpanRecorder &recorder,
           std::int64_t parent, LayerValues &layers)
{
    using Scope = SpanRecorder::Scope;
    const auto t0 = Clock::now();
    PassResult pass;
    std::vector<api::ExpandedJob> jobs;
    std::unordered_map<std::string, std::unique_ptr<lsqca::Program>> programs;
    std::vector<const lsqca::Program *> jobPrograms;
    std::vector<lsqca::SimResult> results;
    std::vector<double> jobSeconds;
    std::size_t poolThreads = 1;
    std::string bytes;
    {
        const Scope passSpan(recorder, "pass", parent);
        {
            const Scope setupSpan(recorder, "setup", passSpan.id());
            const api::BenchmarkRegistry registry =
                api::BenchmarkRegistry::paper();
            {
                const Scope span(recorder, "api.expand", setupSpan.id());
                jobs = api::expandSpec(spec, registry);
            }
            for (const api::ExpandedJob &job : jobs) {
                auto [slot, fresh] = programs.try_emplace(programKey(job));
                if (fresh) {
                    const Scope build(recorder, "build", setupSpan.id());
                    lsqca::Circuit circuit;
                    {
                        const Scope span(recorder, "synth", build.id());
                        circuit = registry.entry(job.bench).synthesize(
                            job.params);
                    }
                    lsqca::Circuit lowered;
                    {
                        const Scope span(recorder, "circuit.lower",
                                         build.id());
                        lowered = lsqca::lowerToCliffordT(circuit);
                    }
                    const Scope span(recorder, "translate", build.id());
                    slot->second = std::make_unique<lsqca::Program>(
                        lsqca::translate(lowered, job.translate));
                }
                jobPrograms.push_back(slot->second.get());
            }
        }
        pass.setupSeconds = secondsSince(t0);

        // SweepEngine's dispatch: each worker pulls the next job index
        // from a shared counter; results land in submission order.
        const std::size_t n = jobs.size();
        results.resize(n);
        jobSeconds.assign(n, 0.0);
        double sweepWall = 0.0;
        {
            const Scope sweepSpan(recorder, "sweep.run", passSpan.id());
            const auto s0 = Clock::now();
            poolThreads = std::max<std::size_t>(
                1, std::min<std::size_t>(static_cast<std::size_t>(threads),
                                         n));
            lsqca::ThreadPool pool(poolThreads);
            std::atomic<std::size_t> next{0};
            std::vector<std::future<void>> drained;
            for (std::size_t w = 0; w < pool.size(); ++w)
                drained.push_back(pool.submit([&, w] {
                    for (;;) {
                        const std::size_t i =
                            next.fetch_add(1, std::memory_order_relaxed);
                        if (i >= n)
                            break;
                        const Scope span(recorder, "sim.simulate",
                                         sweepSpan.id(),
                                         static_cast<std::int64_t>(i),
                                         static_cast<std::int32_t>(w + 1));
                        const auto j0 = Clock::now();
                        results[i] =
                            lsqca::simulate(*jobPrograms[i], jobs[i].options);
                        jobSeconds[i] = secondsSince(j0);
                    }
                }));
            std::exception_ptr failure;
            for (std::future<void> &f : drained) {
                try {
                    f.get();
                } catch (...) {
                    if (!failure)
                        failure = std::current_exception();
                }
            }
            if (failure)
                std::rethrow_exception(failure);
            sweepWall = secondsSince(s0);
        }

        {
            const Scope serialize(recorder, "api.serialize", passSpan.id());
            bool v2 = spec.recordBreakdown;
            Json entries = Json::array();
            for (std::size_t i = 0; i < n; ++i) {
                const Scope span(recorder, "api.bench_entry", serialize.id(),
                                 static_cast<std::int64_t>(i));
                v2 = v2 || !results[i].breakdown.empty();
                entries.push(lsqca::benchEntry(
                    jobs[i].name, results[i], noTiming ? 0.0 : jobSeconds[i]));
            }
            {
                const Scope span(recorder, "api.bench_document",
                                 serialize.id());
                pass.document = lsqca::benchDocument(
                    spec.name, std::move(entries), noTiming ? 0 : threads,
                    noTiming ? 0.0 : sweepWall, v2);
            }
            const Scope span(recorder, "api.dump", serialize.id());
            bytes = pass.document.dump(2);
        }

        {
            const Scope span(recorder, "api.write", passSpan.id());
            std::filesystem::create_directories(outDir);
            pass.path = outDir + "/BENCH_" + spec.name + ".json";
            std::ofstream file(pass.path);
            file << bytes;
            LSQCA_REQUIRE(file.good(), "write failed: " + pass.path);
        }
    }
    pass.wallSeconds = secondsSince(t0);
    pass.runSeconds = pass.wallSeconds - pass.setupSeconds;
    pass.jobs = static_cast<std::int64_t>(jobs.size());

    // Per-layer metrics of this pass.
    layers["api.expand_s"] = recorder.total("api.expand");
    layers["api.serialize_s"] = recorder.total("api.serialize");
    layers["api.bench_bytes"] = static_cast<double>(bytes.size());
    layers["api.write_s"] = recorder.total("api.write");
    layers["synth.s"] = recorder.total("synth");
    layers["circuit.lower_s"] = recorder.total("circuit.lower");
    layers["translate.s"] = recorder.total("translate");
    double programInstructions = 0.0;
    for (const auto &entry : programs)
        programInstructions += static_cast<double>(entry.second->size());
    layers["translate.programs"] = static_cast<double>(programs.size());
    layers["translate.instructions"] = programInstructions;

    double simSeconds = 0.0;
    double execBeats = 0.0;
    double memoryBeats = 0.0;
    std::map<std::string, std::pair<double, double>> byBank;
    for (const char *kind :
         {"arch.point_sam", "arch.line_sam", "arch.conventional"})
        byBank[kind] = {0.0, 0.0};
    lsqca::EmpiricalCdf jobMs;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const double instructions =
            static_cast<double>(results[i].instructionsSimulated);
        pass.instructions += results[i].instructionsSimulated;
        simSeconds += jobSeconds[i];
        execBeats += static_cast<double>(results[i].execBeats);
        memoryBeats += static_cast<double>(results[i].memoryBeats);
        auto &bank = byBank[bankLayer(jobs[i].options.arch.sam)];
        bank.first += jobSeconds[i];
        bank.second += instructions;
        jobMs.add(jobSeconds[i] * 1e3);
    }
    const double instructions = static_cast<double>(pass.instructions);
    layers["sim.s"] = simSeconds;
    layers["sim.instructions"] = instructions;
    layers["sim.minstr_per_s"] =
        simSeconds > 0.0 ? instructions / simSeconds / 1e6 : 0.0;
    layers["sim.jobs"] = static_cast<double>(results.size());
    layers["sim.job_p50_ms"] = jobMs.count() > 0 ? jobMs.quantile(0.50) : 0.0;
    layers["sim.job_p90_ms"] = jobMs.count() > 0 ? jobMs.quantile(0.90) : 0.0;
    layers["sim.job_p99_ms"] = jobMs.count() > 0 ? jobMs.quantile(0.99) : 0.0;
    layers["sim.exec_beats"] = execBeats;
    layers["sim.memory_beats"] = memoryBeats;
    for (const auto &[kind, bank] : byBank) {
        layers[kind + ".sim_s"] = bank.first;
        layers[kind + ".ns_per_instr"] =
            bank.second > 0.0 ? bank.first / bank.second * 1e9 : 0.0;
    }

    const double sweepWall = recorder.total("sweep.run");
    const double workers = static_cast<double>(poolThreads);
    layers["sweep.wall_s"] = sweepWall;
    layers["sweep.busy_s"] = simSeconds;
    layers["sweep.utilization"] =
        sweepWall > 0.0 ? simSeconds / (sweepWall * workers) : 0.0;
    layers["sweep.imbalance_s"] = sweepWall - simSeconds / workers;
    pass.expanded = std::move(jobs);
    return pass;
}

} // namespace perfbench
