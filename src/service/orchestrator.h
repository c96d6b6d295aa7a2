#ifndef LSQCA_SERVICE_ORCHESTRATOR_H
#define LSQCA_SERVICE_ORCHESTRATOR_H

/**
 * @file
 * The one-shot sweep orchestration service: turns one `SweepSpec`
 * into a campaign of shard tasks, dispatches them as child `lsqca run
 * --shard i/N` worker processes (up to `workers` at a time), and
 * drives the persistent queue (service/queue.h) until every shard is
 * done — re-queuing crashed, timed-out, and straggling workers with
 * an attempt cap, assembling shards in-process from the
 * content-addressed result cache (service/cache.h) when every job in
 * their slice is already cached, and finishing with the same
 * `mergeBenchReports` the CLI's `merge` uses, so the final
 * `BENCH_<campaign>.json` is byte-identical to a direct unsharded
 * `lsqca run` under --no-timing.
 *
 * The engine itself — dispatch, retry funnel, straggler policy,
 * cache pass, merge — lives in service/scheduler.h
 * and is shared with the multi-tenant daemon (`lsqca serve`,
 * src/daemon/). The Orchestrator contributes what is specific to the
 * one-shot shape: admission from the CLI's flags, the drive loop's
 * pacing (fill the worker pool, poll, sleep), the state-dir lockfile
 * that keeps a second driver out (service/lock.h), and cooperative
 * SIGINT/SIGTERM shutdown (common/shutdown.h) that reaps children,
 * saves the queue, and journals a `shutdown` event so `lsqca resume`
 * continues exactly where the signal struck.
 *
 * State-dir layout:
 *
 *     <state>/queue.json       lsqca-queue-v1 (source of truth)
 *     <state>/lock             flock(2) held while a driver runs
 *     <state>/events.jsonl     lsqca-events-v1 campaign journal
 *                              (service/journal.h; read by `lsqca
 *                              report` and `lsqca status`)
 *     <state>/metrics.json     registry snapshot of the last drive
 *     <state>/shards/BENCH_*   per-shard worker output
 *     <state>/logs/shard<i>.attempt<a>.log
 *     <state>/cache/jobs/<fp>.json  result cache (override via
 *                              cacheDir)
 *     <state>/BENCH_<campaign>.json   merged artifact (see outDir)
 */

#include <cstdint>
#include <string>
#include <vector>

#include "api/spec.h"
#include "common/json.h"
#include "service/journal.h"
#include "service/lock.h"
#include "service/queue.h"
#include "service/scheduler.h"

namespace lsqca::service {

struct OrchestratorOptions
{
    /** Campaign directory (required). */
    std::string stateDir;
    /** Result cache dir ("" = <stateDir>/cache). */
    std::string cacheDir;
    /** Disable the result cache entirely. */
    bool useCache = true;
    /** Where the merged BENCH document lands ("" = stateDir). */
    std::string outDir;
    /** Concurrent worker processes. */
    std::int32_t workers = 2;
    /** Shard count; 0 = min(jobs, 4 * workers). */
    std::int32_t shards = 0;
    /** `--threads` per worker (processes are the parallelism unit). */
    std::int32_t threadsPerWorker = 1;
    /** Pass --no-timing to workers (deterministic artifact bytes). */
    bool noTiming = false;
    /** Per-attempt hard wall limit, passed as --timeout-seconds. */
    double timeoutSeconds = 0.0;
    /** Straggler deadline as a multiple of the median done wall. */
    double stragglerFactor = 4.0;
    /** Straggler deadline floor (protects millisecond shards). */
    double minStragglerSeconds = 10.0;
    /** Spawn budget per shard (submit only; 0 = default 3). */
    std::int32_t maxAttempts = 0;
    /** Pass --seed-check <fingerprint> to every worker. */
    bool seedCheck = true;
    /** Worker binary (required; the CLI passes itself). */
    std::string workerExe;
    /** Poll interval while workers run. */
    double pollSeconds = 0.02;
    /** Append the campaign journal (events.jsonl) while driving. */
    bool journal = true;
    /**
     * Journal time base: Monotonic stamps real times; Logical stamps
     * deterministic counters (and drops wall-time payload fields), so
     * reruns of a deterministic campaign journal byte-identically.
     */
    JournalClock clock = JournalClock::Monotonic;
    /**
     * Honor a pending shutdown signal (common/shutdown.h) between
     * dispatches: kill workers, save the queue, journal `shutdown`,
     * and return an interrupted report. The CLI turns this on after
     * installing its handlers; embedded/test drives leave it off.
     */
    bool handleShutdown = false;

    // Test hooks (exercised by tests/service and the CI smoke gate).
    /** Extra argv appended to every worker invocation. */
    std::vector<std::string> extraWorkerArgs;
    /** Extra argv appended only to a shard's first attempt. */
    std::vector<std::string> firstAttemptExtraArgs;
    /**
     * > 0: after this many spawns, kill the live workers and return
     * with tasks still marked running — a deterministic stand-in for
     * "the orchestrator machine died mid-campaign".
     */
    std::int32_t stopAfterDispatches = 0;
};

/** Drives one campaign in one state dir. */
class Orchestrator
{
  public:
    explicit Orchestrator(OrchestratorOptions options);

    /**
     * Create a fresh campaign from @p specPath (the state dir must
     * not already hold one) and drive it to completion. @throws
     * ConfigError on an existing queue.json, a bad spec, a
     * fingerprint mismatch, or a state dir another driver has locked.
     */
    CampaignReport submit(const std::string &specPath);

    /**
     * Continue the state dir's campaign: running tasks (an earlier
     * orchestrator died mid-attempt) go back to pending with their
     * attempt counts kept, then the queue drains as usual. A larger
     * `maxAttempts` than the queue's re-opens failed shards.
     */
    CampaignReport resume();

    /** Read queue.json without driving anything. */
    static QueueState inspect(const std::string &stateDir);

    static std::string queuePath(const std::string &stateDir);

    /** `BENCH_<campaign>[.shard<i>of<N>].json` — worker output name. */
    static std::string shardFileName(const std::string &campaign,
                                     std::int32_t index,
                                     std::int32_t count);

  private:
    CampaignReport drive(CampaignAdmission admission);
    SchedulerOptions schedulerOptions() const;

    OrchestratorOptions options_;
    StateLock lock_;
};

} // namespace lsqca::service

#endif // LSQCA_SERVICE_ORCHESTRATOR_H
