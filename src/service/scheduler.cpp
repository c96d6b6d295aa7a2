#include "service/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "api/registry.h"
#include "common/error.h"
#include "common/fs.h"
#include "common/table.h"

namespace lsqca::service {
namespace {

using Clock = std::chrono::steady_clock;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

/** Upper-biased median of a non-empty sample (heuristic use only). */
double
medianOf(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

/**
 * Full-precision rendering for values that are re-parsed by workers
 * (a policy knob must survive the argv round trip exactly; "%.3f"
 * would truncate sub-millisecond timeouts to an invalid "0.000").
 */
std::string
formatArgDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

double
stragglerDeadline(double medianSeconds, double factor,
                  double minSeconds)
{
    return std::max(factor * medianSeconds, minSeconds);
}

std::string
queuePathFor(const std::string &stateDir)
{
    return stateDir + "/queue.json";
}

std::string
shardFileName(const std::string &campaign, std::int32_t index,
              std::int32_t count)
{
    // Mirrors runSpec's output naming: a whole-sweep shard (0/1)
    // carries no marker and no suffix.
    if (count <= 1)
        return "BENCH_" + campaign + ".json";
    return "BENCH_" + campaign + ".shard" + std::to_string(index) +
           "of" + std::to_string(count) + ".json";
}

CampaignAdmission
admitCampaign(const std::string &specPath, const std::string &stateDir,
              std::int32_t shards, std::int32_t workers, bool noTiming,
              std::int32_t maxAttempts)
{
    const std::string queueFile = queuePathFor(stateDir);
    LSQCA_REQUIRE(!fsutil::exists(queueFile),
                  stateDir +
                      " already holds a campaign; continue it with "
                      "`lsqca resume` or remove the directory");

    // Absolute so `lsqca resume` works from any working directory.
    const std::string absSpec =
        std::filesystem::absolute(specPath).lexically_normal().string();
    CampaignAdmission admission;
    admission.leg = "submit";
    admission.spec = api::SweepSpec::load(absSpec);
    const api::BenchmarkRegistry registry =
        api::BenchmarkRegistry::paper();
    admission.jobs = api::expandSpec(admission.spec, registry);

    if (shards <= 0)
        shards = static_cast<std::int32_t>(std::min<std::int64_t>(
            static_cast<std::int64_t>(admission.jobs.size()),
            std::max(4 * workers, 1)));

    QueueState &state = admission.state;
    state.campaign = admission.spec.name;
    state.specPath = absSpec;
    state.shardCount = shards;
    state.noTiming = noTiming;
    state.maxAttempts = maxAttempts > 0 ? maxAttempts : 3;
    const std::vector<std::string> fingerprints = api::shardFingerprints(
        admission.spec, admission.jobs, shards, state.noTiming);
    for (std::int32_t i = 0; i < shards; ++i) {
        ShardTask task;
        task.index = i;
        task.fingerprint = fingerprints[static_cast<std::size_t>(i)];
        state.tasks.push_back(std::move(task));
    }
    fsutil::makeDirs(stateDir);
    state.save(queueFile);
    return admission;
}

CampaignAdmission
reopenCampaign(const std::string &stateDir, std::int32_t maxAttempts)
{
    const std::string queueFile = queuePathFor(stateDir);
    LSQCA_REQUIRE(fsutil::exists(queueFile),
                  stateDir +
                      " holds no campaign (no queue.json); start one "
                      "with `lsqca submit`");
    CampaignAdmission admission;
    admission.leg = "resume";
    QueueState &state = admission.state;
    state = QueueState::load(queueFile);

    // Re-derive the campaign's fingerprints from the spec file as it
    // exists *now*: if it (or the registry) changed since the queue
    // was created, completed shards and queued ones would disagree on
    // content, so refuse to continue rather than poison the merge.
    // (admitCampaign skips this — it computed the fingerprints from
    // the same file milliseconds ago.)
    admission.spec = api::SweepSpec::load(state.specPath);
    LSQCA_REQUIRE(admission.spec.name == state.campaign,
                  state.specPath + ": spec name \"" +
                      admission.spec.name +
                      "\" does not match campaign \"" + state.campaign +
                      "\"");
    const api::BenchmarkRegistry registry =
        api::BenchmarkRegistry::paper();
    admission.jobs = api::expandSpec(admission.spec, registry);
    const std::vector<std::string> fingerprints =
        api::shardFingerprints(admission.spec, admission.jobs,
                               state.shardCount, state.noTiming);
    for (const ShardTask &task : state.tasks) {
        const std::string &expanded =
            fingerprints[static_cast<std::size_t>(task.index)];
        LSQCA_REQUIRE(
            expanded == task.fingerprint,
            "shard " + std::to_string(task.index) + " of campaign \"" +
                state.campaign + "\" now expands to fingerprint " +
                expanded + " but was queued as " + task.fingerprint +
                " — the spec file changed under the campaign; submit "
                "it as a new campaign instead");
    }

    state.resetRunning();
    if (maxAttempts > state.maxAttempts) {
        // A raised cap re-opens shards that exhausted the old one.
        state.maxAttempts = maxAttempts;
        for (ShardTask &task : state.tasks)
            if (task.status == TaskStatus::Failed &&
                task.attempts < state.maxAttempts)
                task.status = TaskStatus::Pending;
    }
    state.save(queueFile);
    return admission;
}

Scheduler::Scheduler(SchedulerOptions options,
                     CampaignAdmission admission)
    : options_(std::move(options)), state_(std::move(admission.state)),
      spec_(std::move(admission.spec)),
      jobs_(std::move(admission.jobs)),
      cache_(options_.cacheDir)
{
    LSQCA_REQUIRE(!options_.stateDir.empty(),
                  "the scheduler needs a state dir");
    LSQCA_REQUIRE(!options_.workerExe.empty(),
                  "the scheduler needs a worker executable");
    LSQCA_REQUIRE(options_.stragglerFactor >= 1.0,
                  "--straggler-factor must be >= 1");

    report_.queuePath = queuePathFor(options_.stateDir);
    if (options_.journal) {
        journal_ = Journal::open(Journal::pathFor(options_.stateDir),
                                 options_.clock);
        report_.journalPath = journal_.path();
        Json fields = Json::object();
        fields.set("campaign", state_.campaign);
        fields.set("spec", state_.specPath);
        fields.set("shards", state_.shardCount);
        fields.set("workers", options_.workers);
        fields.set("max_attempts", state_.maxAttempts);
        fields.set("no_timing", state_.noTiming);
        journal_.record(admission.leg, fields);
    }

    // One registry per drive: the same counters the CampaignReport
    // carries, plus distributions the report's integers flatten. The
    // snapshot lands in <state>/metrics.json from finish(); tests
    // cross-check it against the journal-derived numbers. Registered
    // up front so an idle instrument still appears (as zero) in the
    // snapshot, exactly as the pre-extraction orchestrator's did.
    metrics_.counter("service.spawns");
    metrics_.counter("service.cache.hits");
    metrics_.counter("service.cache.misses");
    metrics_.counter("service.job_cache.hits");
    metrics_.counter("service.job_cache.computed");
    metrics_.counter("service.retries");
    metrics_.counter("service.stragglers_killed");
    metrics_.counter("service.tasks.done");
    metrics_.counter("service.tasks.failed");
    metrics_.counter("service.bytes_merged");
    metrics_.histogram("service.shard_wall_seconds");
    metrics_.gauge("service.workers")
        .set(static_cast<double>(options_.workers));

    shardsDir_ = options_.stateDir + "/shards";
    logsDir_ = options_.stateDir + "/logs";
    fsutil::makeDirs(shardsDir_);

    // Job-granularity fingerprints (docs/SERVICE.md): computed once
    // per drive, shared by the cache pass (splice prediction) and the
    // reap path (job_computed events).
    if (cache_.enabled())
        jobPrints_ =
            api::jobFingerprints(spec_, jobs_, state_.noTiming);
}

Scheduler::~Scheduler()
{
    killWorkers();
}

void
Scheduler::saveQueue()
{
    state_.save(report_.queuePath);
}

std::int32_t
Scheduler::freeSlot() const
{
    // Lowest slot >= 1 not held by a live worker.
    for (std::int32_t slot = 1;; ++slot) {
        bool taken = false;
        for (const RunningWorker &worker : running_)
            if (worker.slot == slot)
                taken = true;
        if (!taken)
            return slot;
    }
}

void
Scheduler::cachePass()
{
    for (std::size_t t = 0; t < state_.tasks.size(); ++t) {
        ShardTask &task = state_.tasks[t];
        if (task.status != TaskStatus::Pending)
            continue;
        if (!cache_.enabled()) {
            metrics_.counter("service.cache.misses").add();
            continue;
        }

        // Step 1: look every job of the slice up in the job cache.
        api::ShardRange range;
        range.index = task.index;
        range.count = state_.shardCount;
        const auto [begin, end] = range.bounds(jobs_.size());
        Json entries = Json::array();
        std::vector<std::size_t> stale;
        for (std::size_t j = begin; j < end; ++j) {
            Json entry = cache_.fetchJob(jobPrints_[j]);
            if (entry.isNull()) {
                stale.push_back(j);
                continue;
            }
            ++report_.jobCacheHits;
            metrics_.counter("service.job_cache.hits").add();
            Json fields = Json::object();
            fields.set("shard", task.index);
            fields.set("job", static_cast<std::int64_t>(j));
            fields.set("fingerprint", jobPrints_[j]);
            journal_.record("job_cache_hit", fields);
            entries.push(std::move(entry));
        }
        task.jobsCached =
            static_cast<std::int32_t>(end - begin - stale.size());
        task.jobsComputed = static_cast<std::int32_t>(stale.size());
        if (!stale.empty()) {
            staleByTask_[t] = std::move(stale);
            metrics_.counter("service.cache.misses").add();
            continue;
        }

        // Step 2: no job is stale (an empty slice included), so build
        // the shard document in-process through the sliceDocument the
        // workers use (byte-identical under --no-timing) and mark the
        // task cached without spawning a worker.
        const std::string name =
            shardFileName(state_.campaign, task.index, state_.shardCount);
        api::sliceDocument(spec_, std::move(entries), range, jobs_.size(),
                           0, 0.0)
            .write(shardsDir_ + "/" + name);
        task.status = TaskStatus::Done;
        task.cached = true;
        task.wallSeconds = 0.0;
        task.output = "shards/" + name;
        task.lastError = "";
        ++report_.cacheHits;
        metrics_.counter("service.cache.hits").add();
        Json fields = Json::object();
        fields.set("shard", task.index);
        fields.set("fingerprint", task.fingerprint);
        fields.set("jobs", static_cast<std::int64_t>(end - begin));
        journal_.record("cache_hit", fields);
    }
    saveQueue();
}

void
Scheduler::fail(ShardTask &task, const std::string &reason,
                const std::string &cause)
{
    // Crash/timeout/straggler funnel: back to pending while the
    // attempt budget lasts, failed once it is exhausted. @p cause is
    // the journal/metrics taxonomy: crash | timeout | straggler |
    // no_output.
    task.lastError = reason;
    Json fields = Json::object();
    fields.set("shard", task.index);
    if (task.attempts >= state_.maxAttempts) {
        task.status = TaskStatus::Failed;
        metrics_.counter("service.tasks.failed").add();
        fields.set("attempts", task.attempts);
        fields.set("cause", cause);
        // The free-text reason embeds wall times and log paths;
        // the logical clock keeps only the deterministic cause
        // (queue.json still holds the full string).
        if (!journal_.logical())
            fields.set("detail", reason);
        journal_.record("task_failed", fields);
    } else {
        task.status = TaskStatus::Pending;
        ++report_.retries;
        metrics_.counter("service.retries").add();
        metrics_.counter("service.retries." + cause).add();
        fields.set("attempt", task.attempts);
        fields.set("cause", cause);
        if (!journal_.logical())
            fields.set("detail", reason);
        journal_.record("retry", fields);
    }
}

void
Scheduler::reapWorker(const RunningWorker &worker)
{
    proc::terminate(worker.pid);
    proc::wait(worker.pid);
}

std::int32_t
Scheduler::dispatchOne()
{
    for (std::size_t t = 0; t < state_.tasks.size(); ++t) {
        ShardTask &task = state_.tasks[t];
        if (task.status != TaskStatus::Pending)
            continue;
        // Record the attempt in queue.json *before* the spawn so a
        // dead driver can never under-count attempts.
        ++task.attempts;
        task.status = TaskStatus::Running;
        saveQueue();

        proc::Command command;
        command.argv = {options_.workerExe,
                        "run",
                        state_.specPath,
                        "--shard",
                        std::to_string(task.index) + "/" +
                            std::to_string(state_.shardCount),
                        "--threads",
                        std::to_string(options_.threadsPerWorker),
                        "--out",
                        shardsDir_};
        if (cache_.enabled()) {
            // The worker splices cached entries itself and simulates
            // only the stale jobs (runSpec's job-cache seam).
            command.argv.push_back("--job-cache");
            command.argv.push_back(cache_.dir());
        }
        if (state_.noTiming)
            command.argv.push_back("--no-timing");
        if (options_.timeoutSeconds > 0.0) {
            command.argv.push_back("--timeout-seconds");
            command.argv.push_back(
                formatArgDouble(options_.timeoutSeconds));
        }
        if (options_.seedCheck) {
            command.argv.push_back("--seed-check");
            command.argv.push_back(task.fingerprint);
        }
        command.argv.insert(command.argv.end(),
                            options_.extraWorkerArgs.begin(),
                            options_.extraWorkerArgs.end());
        if (task.attempts == 1)
            command.argv.insert(command.argv.end(),
                                options_.firstAttemptExtraArgs.begin(),
                                options_.firstAttemptExtraArgs.end());
        command.logPath = logsDir_ + "/shard" +
                          std::to_string(task.index) + ".attempt" +
                          std::to_string(task.attempts) + ".log";

        RunningWorker worker;
        worker.task = t;
        worker.slot = freeSlot();
        worker.pid = proc::spawn(command);
        worker.startSeconds = nowSeconds();
        worker.logPath = command.logPath;
        ++report_.spawned;
        metrics_.counter("service.spawns").add();
        Json fields = Json::object();
        fields.set("shard", task.index);
        fields.set("attempt", task.attempts);
        fields.set("worker", worker.slot);
        if (!journal_.logical())
            fields.set("pid", worker.pid);
        journal_.record("spawn", fields);
        running_.push_back(std::move(worker));
        return task.index;
    }
    return -1;
}

void
Scheduler::pollWorkers()
{
    // Reap finished workers; kill stragglers.
    const double deadline =
        doneWalls_.empty()
            ? 0.0
            : stragglerDeadline(medianOf(doneWalls_),
                                options_.stragglerFactor,
                                options_.minStragglerSeconds);
    for (std::size_t w = 0; w < running_.size();) {
        const RunningWorker &worker = running_[w];
        ShardTask &task = state_.tasks[worker.task];
        proc::Status status = proc::poll(worker.pid);
        const double elapsed = nowSeconds() - worker.startSeconds;

        // The deadline doubles with every attempt, and a shard's
        // final attempt is immune: killing the only copy of a
        // legitimately slow shard into a failed campaign would be
        // worse than waiting (the hard --timeout-seconds still
        // bounds a truly wedged worker).
        const double taskDeadline =
            deadline *
            static_cast<double>(1 << std::min(task.attempts - 1, 16));
        if (status.running && deadline > 0.0 &&
            task.attempts < state_.maxAttempts &&
            elapsed > taskDeadline) {
            reapWorker(worker);
            ++report_.stragglersKilled;
            metrics_.counter("service.stragglers_killed").add();
            {
                Json fields = Json::object();
                fields.set("shard", task.index);
                fields.set("attempt", task.attempts);
                fields.set("worker", worker.slot);
                fields.set("killed", true);
                if (!journal_.logical())
                    fields.set("wall_s", elapsed);
                journal_.record("exit", fields);
            }
            fail(task,
                 "straggler killed after " + TextTable::num(elapsed, 3) +
                     " s (deadline " + TextTable::num(taskDeadline, 3) +
                     " s, attempt " + std::to_string(task.attempts) +
                     ", base = " +
                     TextTable::num(options_.stragglerFactor, 3) +
                     " x median done wall)",
                 "straggler");
            saveQueue();
            running_.erase(running_.begin() +
                           static_cast<std::ptrdiff_t>(w));
            continue;
        }
        if (status.running) {
            ++w;
            continue;
        }

        const std::string name =
            shardFileName(state_.campaign, task.index, state_.shardCount);
        const std::string outPath = shardsDir_ + "/" + name;
        {
            Json fields = Json::object();
            fields.set("shard", task.index);
            fields.set("attempt", task.attempts);
            fields.set("worker", worker.slot);
            if (status.ok())
                fields.set("ok", true);
            else if (status.exited)
                fields.set("code", status.exitCode);
            else
                fields.set("signal", status.signal);
            if (!journal_.logical())
                fields.set("wall_s", elapsed);
            journal_.record("exit", fields);
        }
        if (status.ok() && fsutil::exists(outPath)) {
            task.status = TaskStatus::Done;
            task.cached = false;
            task.wallSeconds = elapsed;
            task.output = "shards/" + name;
            task.lastError = "";
            doneWalls_.push_back(elapsed);
            metrics_.counter("service.tasks.done").add();
            metrics_.histogram("service.shard_wall_seconds")
                .observe(elapsed);
            // The jobs the cache pass predicted this task had to
            // simulate are now on record (the worker stored their
            // entries under these fingerprints).
            const auto staleIt = staleByTask_.find(worker.task);
            if (staleIt != staleByTask_.end()) {
                for (const std::size_t j : staleIt->second) {
                    ++report_.jobsComputed;
                    metrics_.counter("service.job_cache.computed").add();
                    Json computed = Json::object();
                    computed.set("shard", task.index);
                    computed.set("job", static_cast<std::int64_t>(j));
                    computed.set("fingerprint", jobPrints_[j]);
                    journal_.record("job_computed", computed);
                }
                staleByTask_.erase(staleIt);
            }
            Json fields = Json::object();
            fields.set("shard", task.index);
            fields.set("output", task.output);
            journal_.record("task_done", fields);
        } else if (status.ok()) {
            fail(task, "worker exited 0 without writing " + name,
                 "no_output");
        } else {
            std::string reason = "worker " + status.describe();
            std::string cause = "crash";
            if (status.exited &&
                status.exitCode == api::kTimeoutExitCode) {
                reason += " (timed out)";
                cause = "timeout";
            } else if (status.exited &&
                       status.exitCode == api::kDieAfterExitCode) {
                reason += " (died mid-shard)";
            }
            fail(task, reason + "; see " + worker.logPath, cause);
        }
        saveQueue();
        running_.erase(running_.begin() +
                       static_cast<std::ptrdiff_t>(w));
    }
}

void
Scheduler::killWorkers()
{
    // Simulated (or real) driver death/shutdown: the queue keeps the
    // tasks marked running; a resume leg re-queues them. The live
    // attempts get no exit events — exactly what a dead driver leaves
    // behind — so the report's open-span closure path is what readers
    // see.
    for (const RunningWorker &live : running_)
        reapWorker(live);
    running_.clear();
}

void
Scheduler::recordShutdown(int signal)
{
    Json fields = Json::object();
    fields.set("signal", signal);
    journal_.record("shutdown", fields);
}

CampaignReport
Scheduler::finish(bool interrupted)
{
    report_.interrupted = interrupted;
    report_.queue = state_;
    if (state_.allDone()) {
        // Merge in shard order through the same path `lsqca merge`
        // uses; under --no-timing the artifact is byte-identical to a
        // direct unsharded run (pinned by tests/service and CI).
        std::vector<Json> docs;
        std::vector<std::string> labels;
        docs.reserve(static_cast<std::size_t>(state_.shardCount));
        for (const ShardTask &task : state_.tasks) {
            const std::string path = options_.stateDir + "/" + task.output;
            docs.push_back(Json::load(path));
            labels.push_back(path);
        }
        const Json merged = api::mergeBenchReports(docs, labels);
        report_.mergedPath = writeBenchJson(
            state_.campaign, merged,
            options_.outDir.empty() ? options_.stateDir
                                    : options_.outDir);
        report_.complete = true;
        Json fields = Json::object();
        // Journal fields must not depend on where the campaign
        // directory happens to live (byte-stable logical reruns).
        std::string relative = report_.mergedPath;
        const std::string prefix = options_.stateDir + "/";
        if (relative.rfind(prefix, 0) == 0)
            relative = relative.substr(prefix.size());
        fields.set("path", relative);
        fields.set("shards", state_.shardCount);
        const std::int64_t bytes = static_cast<std::int64_t>(
            std::filesystem::file_size(report_.mergedPath));
        fields.set("bytes", bytes);
        metrics_.counter("service.bytes_merged").add(bytes);
        journal_.record("merge", fields);
        report_.queue = state_;
    }

    // Every exit from a drive: the terminal `done` event (the journal
    // cross-check anchor) and the metrics snapshot.
    Json fields = Json::object();
    fields.set("complete", report_.complete);
    fields.set("interrupted", report_.interrupted);
    fields.set("spawned", report_.spawned);
    fields.set("cache_hits", report_.cacheHits);
    fields.set("retries", report_.retries);
    fields.set("stragglers_killed", report_.stragglersKilled);
    fields.set("job_cache_hits", report_.jobCacheHits);
    fields.set("jobs_computed", report_.jobsComputed);
    journal_.record("done", fields);
    report_.metrics = metrics_.toJson();
    if (journal_.enabled()) {
        report_.metricsPath = options_.stateDir + "/metrics.json";
        fsutil::writeFileAtomic(report_.metricsPath,
                                report_.metrics.dump(2) + "\n");
    }
    return report_;
}

std::size_t
Scheduler::pendingCount() const
{
    return state_.countWithStatus(TaskStatus::Pending);
}

bool
Scheduler::drained() const
{
    return running_.empty() &&
           state_.countWithStatus(TaskStatus::Pending) == 0;
}

} // namespace lsqca::service
