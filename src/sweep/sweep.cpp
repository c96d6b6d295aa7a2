#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "api/serialize.h"
#include "common/error.h"
#include "sweep/thread_pool.h"

namespace lsqca {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

SweepEngine::SweepEngine(SweepOptions options)
    : threads_(options.threads > 0
                   ? options.threads
                   : static_cast<std::int32_t>(std::max(
                         1u, std::thread::hardware_concurrency()))),
      metrics_(options.metrics)
{
}

SweepReport
SweepEngine::run(const std::vector<SweepJob> &jobs) const
{
    const auto t0 = std::chrono::steady_clock::now();
    SweepReport report;
    report.threads = threads_;
    report.results.resize(jobs.size());
    report.jobSeconds.assign(jobs.size(), 0.0);
    for (const auto &job : jobs)
        LSQCA_REQUIRE(job.program != nullptr,
                      "sweep job '" + job.name + "' has no program");

    // Instrument lookups happen once, here; per-job updates are
    // relaxed atomics (common/metrics.h). All null when detached.
    metrics::Counter *jobsDone =
        metrics_ ? &metrics_->counter("sweep.jobs") : nullptr;
    metrics::Histogram *jobWall =
        metrics_ ? &metrics_->histogram("sweep.job_wall_seconds")
                 : nullptr;
    metrics::Histogram *queueWait =
        metrics_ ? &metrics_->histogram("sweep.queue_wait_seconds")
                 : nullptr;

    // Workers pull the next job index from a shared counter: cheap
    // dynamic load balancing (job costs vary by orders of magnitude)
    // while each result lands in its submission slot, keeping the
    // output order — and therefore every downstream table — identical
    // to the serial loop.
    auto runJob = [&](std::size_t index) {
        const auto j0 = std::chrono::steady_clock::now();
        report.results[index] =
            simulate(*jobs[index].program, jobs[index].options);
        report.jobSeconds[index] = secondsSince(j0);
        if (jobsDone != nullptr) {
            jobsDone->add();
            jobWall->observe(report.jobSeconds[index]);
        }
    };

    // A job's queue wait is the sweep time that passed before its
    // worker picked it up, net of that worker's own busy time — the
    // load-imbalance signal `lsqca report`-style tooling reads.
    const auto finishWorker = [&](std::size_t w, double busy) {
        if (metrics_ != nullptr)
            metrics_
                ->gauge("sweep.worker." + std::to_string(w + 1) +
                        ".busy_seconds")
                .set(busy);
    };

    if (threads_ <= 1 || jobs.size() <= 1) {
        double busy = 0.0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (queueWait != nullptr)
                queueWait->observe(
                    std::max(0.0, secondsSince(t0) - busy));
            runJob(i);
            busy += report.jobSeconds[i];
        }
        finishWorker(0, busy);
        report.wallSeconds = secondsSince(t0);
        if (metrics_ != nullptr)
            metrics_->gauge("sweep.wall_seconds")
                .set(report.wallSeconds);
        return report;
    }

    ThreadPool pool(static_cast<std::size_t>(
        std::min<std::int64_t>(threads_,
                               static_cast<std::int64_t>(jobs.size()))));
    pool.attachMetrics(metrics_);
    std::atomic<std::size_t> next{0};
    std::vector<std::future<void>> drained;
    drained.reserve(pool.size());
    for (std::size_t w = 0; w < pool.size(); ++w) {
        drained.push_back(pool.submit([&, w] {
            double busy = 0.0;
            for (;;) {
                const std::size_t index =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (index >= jobs.size())
                    break;
                if (queueWait != nullptr)
                    queueWait->observe(
                        std::max(0.0, secondsSince(t0) - busy));
                runJob(index);
                busy += report.jobSeconds[index];
            }
            finishWorker(w, busy);
        }));
    }
    // get() rethrows the first worker exception after all settle.
    std::exception_ptr failure;
    for (auto &f : drained) {
        try {
            f.get();
        } catch (...) {
            if (!failure)
                failure = std::current_exception();
        }
    }
    if (failure)
        std::rethrow_exception(failure);
    report.wallSeconds = secondsSince(t0);
    if (metrics_ != nullptr)
        metrics_->gauge("sweep.wall_seconds").set(report.wallSeconds);
    return report;
}

Json
benchEntry(const std::string &name, const SimResult &r, double jobSeconds)
{
    Json metrics = Json::object();
    metrics.set("cpi", r.cpi);
    metrics.set("exec_beats", r.execBeats);
    metrics.set("memory_beats", r.memoryBeats);
    metrics.set("magic_stall_beats", r.magicStallBeats);
    metrics.set("density", r.density());
    metrics.set("wall_seconds", jobSeconds);
    Json entry = Json::object();
    entry.set("name", name);
    entry.set("metrics", std::move(metrics));
    if (!r.breakdown.empty())
        entry.set("breakdown", api::toJson(r.breakdown));
    return entry;
}

Json
benchDocument(const std::string &benchName, Json entries,
              std::int32_t threads, double wallSeconds, bool v2)
{
    Json doc = Json::object();
    doc.set("bench", benchName);
    doc.set("schema", v2 ? "lsqca-bench-v2" : "lsqca-bench-v1");
    doc.set("threads", threads);
    doc.set("jobs", static_cast<std::int64_t>(entries.size()));
    doc.set("wall_seconds", wallSeconds);
    doc.set("entries", std::move(entries));
    return doc;
}

std::string
writeBenchJson(const std::string &benchName, const Json &doc,
               const std::string &outDir)
{
    const std::string path = outDir + "/BENCH_" + benchName + ".json";
    doc.write(path);
    return path;
}

} // namespace lsqca
