#ifndef LSQCA_SERVICE_REPORT_H
#define LSQCA_SERVICE_REPORT_H

/**
 * @file
 * Campaign observability readers: everything `lsqca report` (and the
 * `lsqca status` age column) derives from a campaign's `events.jsonl`
 * journal — and *only* from the journal, so a report reconstructs an
 * interrupted-and-resumed campaign's full history without queue.json
 * or the orchestrator's in-memory counters (the acceptance contract;
 * tests cross-check these numbers against both).
 *
 *  - CampaignStats::fromFile / fromEvents: one pass over the event
 *    stream folding it into counters (spawns, retries by cause, cache
 *    hits, stragglers), per-worker attempt spans, and
 *    per-shard last-activity times.
 *  - renderReport: the human tables (wall-clock breakdown, throughput,
 *    retry causes, cache hit rate, per-worker
 *    utilization). Deterministic given the journal bytes, so a
 *    `--clock logical` campaign reports byte-identically across runs.
 *  - writeChromeTrace: the same spans as a Chrome/Perfetto trace
 *    (`chrome://tracing` JSON array format): one track per worker
 *    slot, one "X" complete span per shard attempt, instant events
 *    for cache hits, retries, and the merge on the orchestrator
 *    track (tid 0). See docs/METRICS.md for the exact mapping.
 */

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"

namespace lsqca::service {

/** One worker-slot attempt span reconstructed from spawn/exit. */
struct AttemptSpan
{
    std::int32_t worker = 0;
    std::int32_t shard = 0;
    std::int32_t attempt = 0;
    /** Journal time units (seconds, or sequence under --clock logical). */
    double start = 0.0;
    double end = 0.0;
    /**
     * done / retry:<cause> / failed:<cause> / interrupted (no exit
     * event before its leg ended).
     */
    std::string outcome;
};

/** Everything `lsqca report` knows, folded from events.jsonl alone. */
struct CampaignStats
{
    std::string journalPath;
    std::string clock = "monotonic";
    std::string campaign;
    std::string specPath;
    std::int32_t shardCount = 0;
    std::int32_t maxAttempts = 0;

    /** Total journal records (including headers and warnings). */
    std::int64_t events = 0;
    /** submit + resume legs recorded. */
    std::int32_t legs = 0;
    /** `truncated` repair warnings (torn tails cut on reopen). */
    std::int32_t truncatedRepairs = 0;
    /** The journal itself currently ends mid-line (live writer). */
    bool truncatedTail = false;

    std::int64_t spawned = 0;
    std::int64_t cacheHits = 0;
    /** Distinct tasks that needed at least one spawn (cache misses). */
    std::int64_t cacheMisses = 0;
    /** Jobs spliced from the job-granularity cache (job_cache_hit). */
    std::int64_t jobCacheHits = 0;
    /** Jobs workers actually simulated (job_computed). */
    std::int64_t jobsComputed = 0;
    std::int64_t retries = 0;
    std::map<std::string, std::int64_t> retriesByCause;
    std::int64_t stragglersKilled = 0;
    std::int64_t tasksDone = 0;
    std::int64_t tasksFailed = 0;

    std::vector<AttemptSpan> spans;
    /** (t, label) orchestrator-track instants for the Chrome trace. */
    std::vector<std::pair<double, std::string>> instants;

    /** First/last event times (journal time units). */
    double firstT = 0.0;
    double lastT = 0.0;
    /** Campaign epoch (unix seconds; 0 under the logical clock). */
    double wall0 = 0.0;

    /** shard -> wall of its latest event (absent under logical clock). */
    std::map<std::int32_t, double> lastWallByShard;
    /** shard -> t of its latest event. */
    std::map<std::int32_t, double> lastTByShard;

    bool complete = false;
    bool interrupted = false;
    std::string mergedPath;
    std::int64_t bytesMerged = 0;

    /** Total time covered by the journal (lastT - firstT). */
    double span() const { return lastT - firstT; }

    /** Sum of attempt span durations for @p worker. */
    double busySeconds(std::int32_t worker) const;

    /** Worker slots that ever ran an attempt, ascending. */
    std::vector<std::int32_t> workers() const;

    /** Fold a parsed event stream. @throws ConfigError on bad events. */
    static CampaignStats fromEvents(const std::vector<Json> &lines);

    /**
     * readLines(@p path) + fromEvents. A torn final line (live or
     * killed writer) is tolerated and flagged via `truncatedTail`.
     */
    static CampaignStats fromFile(const std::string &path);
};

/** The human `lsqca report` tables. */
void renderReport(const CampaignStats &stats, std::ostream &out);

/** Perfetto-loadable trace of the campaign's worker activity. */
void writeChromeTrace(const CampaignStats &stats, std::ostream &out);

} // namespace lsqca::service

#endif // LSQCA_SERVICE_REPORT_H
