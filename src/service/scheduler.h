#ifndef LSQCA_SERVICE_SCHEDULER_H
#define LSQCA_SERVICE_SCHEDULER_H

/**
 * @file
 * The reusable campaign engine underneath both drivers of a sweep:
 * the one-shot `Orchestrator` (one campaign, drive until drained) and
 * the multi-tenant daemon (`lsqca serve`, many campaigns sharing one
 * worker pool). A `Scheduler` owns exactly one campaign — its queue,
 * journal, metrics, result cache, and live worker processes — and
 * exposes the orchestrator's former inner loop as separate steps so a
 * caller can interleave several campaigns' steps on its own cadence:
 *
 *     cachePass();                 // assemble fully cached shards
 *     while (!drained()) {
 *         dispatchOne();           // spawn one pending shard
 *         pollWorkers();           // reap exits, kill stragglers
 *     }
 *     finish(false);               // merge + `done` event + metrics
 *
 * Policy (retry funnel, straggler deadlines, job-granularity result
 * cache, byte-identical merge) is shared by both drivers and pinned
 * by tests/service. docs/SERVICE.md describes the policy;
 * docs/DAEMON.md describes the multi-tenant caller.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/spec.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/subprocess.h"
#include "service/cache.h"
#include "service/journal.h"
#include "service/queue.h"

namespace lsqca::service {

/** What one submit()/resume() call (or daemon tenancy) did. */
struct CampaignReport
{
    /** Every shard done and the merged artifact written. */
    bool complete = false;
    /** Stopped early (stopAfterDispatches hook or a shutdown). */
    bool interrupted = false;
    /** Shutdown signal that stopped the drive (0 = none). */
    int shutdownSignal = 0;
    std::int32_t spawned = 0;
    std::int32_t cacheHits = 0;
    /** Crash/timeout/straggler attempts that were re-queued. */
    std::int32_t retries = 0;
    std::int32_t stragglersKilled = 0;
    /**
     * Jobs served from the result cache at queue time (both fully
     * assembled shards and partial splices a worker completed).
     */
    std::int64_t jobCacheHits = 0;
    /** Jobs this call's workers actually simulated. */
    std::int64_t jobsComputed = 0;
    /** Merged BENCH path ("" unless complete). */
    std::string mergedPath;
    std::string queuePath;
    /** Campaign journal path ("" when journaling is disabled). */
    std::string journalPath;
    /** Metrics snapshot path ("" when journaling is disabled). */
    std::string metricsPath;
    /** The drive's final metrics snapshot (same doc as metricsPath). */
    Json metrics;
    /** Final queue snapshot (matches the file on disk). */
    QueueState queue;
};

/** max(factor * median, floor) — exposed for unit tests. */
double stragglerDeadline(double medianSeconds, double factor,
                         double minSeconds);

/** `<stateDir>/queue.json`. */
std::string queuePathFor(const std::string &stateDir);

/** `BENCH_<campaign>[.shard<i>of<N>].json` — worker output name. */
std::string shardFileName(const std::string &campaign,
                          std::int32_t index, std::int32_t count);

/** A campaign admitted for driving: queue plus its expanded spec. */
struct CampaignAdmission
{
    QueueState state;
    api::SweepSpec spec;
    std::vector<api::ExpandedJob> jobs;
    /** Journal leg this admission opens: "submit" or "resume". */
    const char *leg = "submit";
};

/**
 * Create a fresh campaign in @p stateDir from @p specPath and save
 * its queue.json. @p shards <= 0 means min(jobs, max(4*workers, 1)).
 * @throws ConfigError when the dir already holds a campaign.
 */
CampaignAdmission admitCampaign(const std::string &specPath,
                                const std::string &stateDir,
                                std::int32_t shards,
                                std::int32_t workers, bool noTiming,
                                std::int32_t maxAttempts);

/**
 * Reopen @p stateDir's campaign: re-verify every queued fingerprint
 * against the spec file as it exists now (refusing drift), requeue
 * tasks stranded running by a dead driver, and — when @p maxAttempts
 * exceeds the queue's — reopen failed shards under the raised cap.
 * @throws ConfigError when no campaign exists or the spec drifted.
 */
CampaignAdmission reopenCampaign(const std::string &stateDir,
                                 std::int32_t maxAttempts);

/** Per-campaign knobs the engine needs (OrchestratorOptions minus
 *  the one-shot pacing: workers cap, poll interval, stop hook). */
struct SchedulerOptions
{
    /** Campaign directory (required). */
    std::string stateDir;
    /** Result cache dir; "" disables caching entirely. */
    std::string cacheDir;
    /** Where the merged BENCH document lands ("" = stateDir). */
    std::string outDir;
    /** `--threads` per worker (processes are the parallelism unit). */
    std::int32_t threadsPerWorker = 1;
    /** Worker-pool size — journal leg metadata and gauge only; the
     *  caller enforces the actual cap across its schedulers. */
    std::int32_t workers = 2;
    /** Per-attempt hard wall limit, passed as --timeout-seconds. */
    double timeoutSeconds = 0.0;
    /** Straggler deadline as a multiple of the median done wall. */
    double stragglerFactor = 4.0;
    /** Straggler deadline floor (protects millisecond shards). */
    double minStragglerSeconds = 10.0;
    /** Pass --seed-check <fingerprint> to every worker. */
    bool seedCheck = true;
    /** Worker binary (required; drivers pass the CLI itself). */
    std::string workerExe;
    /** Append the campaign journal (events.jsonl) while driving. */
    bool journal = true;
    /** Journal time base (see OrchestratorOptions::clock). */
    JournalClock clock = JournalClock::Monotonic;
    /** Extra argv appended to every worker invocation (test hook). */
    std::vector<std::string> extraWorkerArgs;
    /** Extra argv appended only to a shard's first attempt. */
    std::vector<std::string> firstAttemptExtraArgs;
};

/**
 * Drives one admitted campaign, one step at a time. Owns the live
 * worker processes it spawned; destroying a Scheduler with workers
 * still running kills and reaps them (the queue keeps those tasks
 * marked running, so a resume leg re-queues them — same contract as
 * a dead orchestrator).
 */
class Scheduler
{
  public:
    /**
     * Take ownership of an admitted campaign, open its journal
     * (recording the admission's submit/resume leg event), and start
     * the metrics registry. Does not touch the cache yet — callers
     * run cachePass() first, as the orchestrator always has.
     */
    Scheduler(SchedulerOptions options, CampaignAdmission admission);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Look up every pending shard's jobs in the result cache and
     * assemble, in-process, each shard none of whose jobs is stale
     * (empty slices included). Saves the queue.
     */
    void cachePass();

    /**
     * Spawn the next pending shard (attempt recorded in queue.json
     * *before* the spawn, so a dead driver can never under-count).
     * Returns the dispatched shard index, or -1 when nothing is
     * pending. The caller owns the pool cap: never call with
     * runningCount() at its worker budget.
     */
    std::int32_t dispatchOne();

    /** Reap finished workers; kill stragglers past their deadline. */
    void pollWorkers();

    /** SIGKILL and reap every live worker; their tasks stay marked
     *  running in the saved queue (a resume leg re-queues them). */
    void killWorkers();

    /**
     * Append the journal `shutdown` event (signal number, live-task
     * count) after killWorkers() — the orderly-interruption marker
     * `lsqca status` and the daemon protocol surface.
     */
    void recordShutdown(int signal);

    /**
     * Close out the drive: merge in shard order when every task is
     * done (byte-identical to a direct unsharded run under
     * --no-timing), append the terminal `done` event, snapshot
     * metrics, and return the final report.
     */
    CampaignReport finish(bool interrupted);

    /** Pending tasks (dispatchOne would find work). */
    std::size_t pendingCount() const;
    std::size_t runningCount() const { return running_.size(); }
    /** No pending and no running tasks (failed ones may remain). */
    bool drained() const;

    const QueueState &state() const { return state_; }
    const CampaignReport &progress() const { return report_; }
    const SchedulerOptions &options() const { return options_; }

  private:
    struct RunningWorker
    {
        std::size_t task = 0;
        proc::Pid pid = 0;
        double startSeconds = 0.0;
        std::string logPath;
        /** Worker slot (1..workers) — the journal/trace track. */
        std::int32_t slot = 0;
    };

    void fail(ShardTask &task, const std::string &reason,
              const std::string &cause);
    void reapWorker(const RunningWorker &worker);
    std::int32_t freeSlot() const;
    void saveQueue();

    SchedulerOptions options_;
    QueueState state_;
    api::SweepSpec spec_;
    std::vector<api::ExpandedJob> jobs_;
    Journal journal_;
    metrics::Registry metrics_;
    CampaignReport report_;

    std::string shardsDir_;
    std::string logsDir_;
    ResultCache cache_;

    std::vector<std::string> jobPrints_;
    /** Stale job indices the cache pass predicted per task slot. */
    std::map<std::size_t, std::vector<std::size_t>> staleByTask_;

    std::vector<RunningWorker> running_;
    std::vector<double> doneWalls_;
};

} // namespace lsqca::service

#endif // LSQCA_SERVICE_SCHEDULER_H
