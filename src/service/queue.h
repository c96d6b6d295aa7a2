#ifndef LSQCA_SERVICE_QUEUE_H
#define LSQCA_SERVICE_QUEUE_H

/**
 * @file
 * Persistent campaign state for the sweep orchestration service.
 *
 * A campaign is one sweep spec fanned across `N` shard tasks; its
 * whole lifecycle lives in a single on-disk document, `queue.json`
 * (schema `lsqca-queue-v1`), written atomically after every state
 * transition. That file is the source of truth: an orchestrator that
 * crashes — or is killed mid-dispatch — resumes exactly where it
 * stopped (`lsqca resume`), with attempt counts intact, because every
 * spawn is recorded *before* the worker starts.
 *
 * Task life cycle:
 *
 *     pending -> running -> done
 *        ^          |
 *        +----------+  (crash / timeout / straggler kill,
 *                       while attempts < max_attempts)
 *        |
 *      failed          (attempt budget exhausted)
 *
 * `attempts` counts spawns, so "attempt counts persist across
 * orchestrator restart" falls out of the write-before-spawn rule
 * rather than any recovery logic.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace lsqca::service {

/** Queue document schema identifier. */
inline constexpr const char *kQueueSchema = "lsqca-queue-v1";

enum class TaskStatus : std::uint8_t
{
    Pending,
    Running,
    Done,
    Failed,
};

/** "pending" / "running" / "done" / "failed". */
const char *taskStatusName(TaskStatus status);

/** Inverse of taskStatusName. @throws ConfigError. */
TaskStatus taskStatusFromName(const std::string &name);

/** One shard of the campaign's sweep. */
struct ShardTask
{
    /** Shard index in [0, shard_count). */
    std::int32_t index = 0;
    /** Content fingerprint of the slice (the result-cache key). */
    std::string fingerprint;
    TaskStatus status = TaskStatus::Pending;
    /** Worker spawns so far (recorded before each spawn). */
    std::int32_t attempts = 0;
    /** Wall seconds of the successful attempt (0 until done). */
    double wallSeconds = 0.0;
    /** Satisfied from the result cache, no worker spawned. */
    bool cached = false;
    /** Shard BENCH path relative to the state dir ("" until done). */
    std::string output;
    /** Last failure, e.g. "signal 9 (straggler)" ("" when none). */
    std::string lastError;
    /**
     * Job cache split the last cache pass predicted for this slice:
     * jobs served from the job cache vs jobs its worker must simulate
     * (docs/SERVICE.md). Both 0 for empty slices and cache-off
     * campaigns — and omitted from the JSON then, so older queue
     * documents round-trip byte-identically.
     */
    std::int32_t jobsCached = 0;
    std::int32_t jobsComputed = 0;
};

/** The whole campaign: identity, policy that affects bytes, tasks. */
struct QueueState
{
    /** Sweep name; the merged artifact is BENCH_<campaign>.json. */
    std::string campaign;
    /** Spec file the workers re-load (resume re-fingerprints it). */
    std::string specPath;
    std::int32_t shardCount = 1;
    /** Workers run --no-timing (part of the cache key). */
    bool noTiming = false;
    /** Spawn budget per shard before it is marked failed. */
    std::int32_t maxAttempts = 3;
    /** Exactly one task per shard, in index order. */
    std::vector<ShardTask> tasks;

    /** Strict lsqca-queue-v1 parse. @throws ConfigError. */
    static QueueState fromJson(const Json &doc);

    Json toJson() const;

    /** fromJson(Json::load(path)) with the path in errors. */
    static QueueState load(const std::string &path);

    /** Atomic write (tmp + rename) — crash-safe persistence. */
    void save(const std::string &path) const;

    std::size_t countWithStatus(TaskStatus status) const;

    bool allDone() const
    {
        return countWithStatus(TaskStatus::Done) == tasks.size();
    }

    /**
     * Recovery after an orchestrator death: tasks left "running" had
     * their worker orphaned or killed, so they go back to pending —
     * attempts stay, because the spawn already happened. Returns how
     * many tasks were reset.
     */
    std::size_t resetRunning();
};

} // namespace lsqca::service

#endif // LSQCA_SERVICE_QUEUE_H
