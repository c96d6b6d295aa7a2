#include "service/report.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "common/jsonl.h"
#include "common/table.h"
#include "service/journal.h"

namespace lsqca::service {
namespace {

std::int32_t
asInt32(const Json &value)
{
    return static_cast<std::int32_t>(value.asInt());
}

/** Exit outcome tag for a closed span awaiting its verdict event. */
std::string
exitOutcome(const Json &event)
{
    if (const Json *ok = event.find("ok"); ok && ok->asBool())
        return "exit:ok";
    if (const Json *killed = event.find("killed");
        killed && killed->asBool())
        return "killed";
    if (const Json *code = event.find("code"))
        return "exit:" + std::to_string(code->asInt());
    if (const Json *sig = event.find("signal"))
        return "signal:" + std::to_string(sig->asInt());
    return "exit";
}

} // namespace

double
CampaignStats::busySeconds(std::int32_t worker) const
{
    double busy = 0.0;
    for (const AttemptSpan &span : spans)
        if (span.worker == worker)
            busy += span.end - span.start;
    return busy;
}

std::vector<std::int32_t>
CampaignStats::workers() const
{
    std::set<std::int32_t> slots;
    for (const AttemptSpan &span : spans)
        slots.insert(span.worker);
    return {slots.begin(), slots.end()};
}

CampaignStats
CampaignStats::fromEvents(const std::vector<Json> &lines)
{
    CampaignStats stats;
    stats.events = static_cast<std::int64_t>(lines.size());
    LSQCA_REQUIRE(!lines.empty(), "empty campaign journal");
    {
        const Json &header = lines.front();
        LSQCA_REQUIRE(header.isObject() && header.contains("event") &&
                          header.at("event").asString() == "journal",
                      "campaign journal does not start with a header "
                      "event");
        const std::string schema = header.at("schema").asString();
        LSQCA_REQUIRE(schema == kEventsSchema,
                      "unsupported journal schema " + schema);
        stats.clock = header.at("clock").asString();
        if (const Json *wall0 = header.find("wall0"))
            stats.wall0 = wall0->asDouble();
    }
    stats.firstT = lines.front().at("t").asDouble();

    // Worker slot -> index of its open span; shard -> index of the
    // last span closed by an exit, so the verdict event that follows
    // (task_done / retry / task_failed) can label its outcome.
    std::map<std::int32_t, std::size_t> openByWorker;
    std::map<std::int32_t, std::size_t> lastClosedByShard;
    // Distinct shards that needed a spawn.
    std::set<std::int32_t> spawnedShards;

    for (const Json &event : lines) {
        LSQCA_REQUIRE(event.isObject() && event.contains("event") &&
                          event.contains("seq") && event.contains("t"),
                      "malformed journal event (missing event/seq/t)");
        const std::string kind = event.at("event").asString();
        const double t = event.at("t").asDouble();
        stats.lastT = t;
        if (const Json *shard = event.find("shard")) {
            const std::int32_t index = asInt32(*shard);
            stats.lastTByShard[index] = t;
            if (const Json *wall = event.find("wall"))
                stats.lastWallByShard[index] = wall->asDouble();
        }

        if (kind == "journal")
            continue;
        if (kind == "truncated") {
            ++stats.truncatedRepairs;
            continue;
        }
        if (kind == "submit" || kind == "resume") {
            ++stats.legs;
            stats.campaign = event.at("campaign").asString();
            if (const Json *spec = event.find("spec"))
                stats.specPath = spec->asString();
            if (const Json *shards = event.find("shards"))
                stats.shardCount = asInt32(*shards);
            if (const Json *attempts = event.find("max_attempts"))
                stats.maxAttempts = asInt32(*attempts);
            // A new leg means the previous one died without a `done`
            // event: close its orphaned spans at the leg boundary.
            for (const auto &[worker, index] : openByWorker)
                stats.spans[index].end =
                    std::max(stats.spans[index].end, t);
            openByWorker.clear();
            continue;
        }
        if (kind == "cache_hit") {
            ++stats.cacheHits;
            stats.instants.emplace_back(
                t, "cache hit shard " +
                       std::to_string(asInt32(event.at("shard"))));
            continue;
        }
        if (kind == "job_cache_hit") {
            ++stats.jobCacheHits;
            continue;
        }
        if (kind == "job_computed") {
            ++stats.jobsComputed;
            continue;
        }
        if (kind == "spawn") {
            AttemptSpan span;
            span.worker = asInt32(event.at("worker"));
            span.shard = asInt32(event.at("shard"));
            span.attempt = asInt32(event.at("attempt"));
            span.start = span.end = t;
            span.outcome = "interrupted";
            ++stats.spawned;
            spawnedShards.insert(span.shard);
            openByWorker[span.worker] = stats.spans.size();
            stats.spans.push_back(std::move(span));
            continue;
        }
        if (kind == "exit") {
            const std::int32_t worker = asInt32(event.at("worker"));
            const auto open = openByWorker.find(worker);
            if (open != openByWorker.end()) {
                AttemptSpan &span = stats.spans[open->second];
                span.end = t;
                span.outcome = exitOutcome(event);
                lastClosedByShard[span.shard] = open->second;
                openByWorker.erase(open);
            }
            continue;
        }
        if (kind == "task_done" || kind == "retry" ||
            kind == "task_failed") {
            const std::int32_t shard = asInt32(event.at("shard"));
            std::string outcome = "done";
            if (kind == "task_done") {
                ++stats.tasksDone;
            } else {
                const std::string cause =
                    event.at("cause").asString();
                if (kind == "retry") {
                    ++stats.retries;
                    ++stats.retriesByCause[cause];
                    outcome = "retry:" + cause;
                    stats.instants.emplace_back(
                        t, "retry shard " + std::to_string(shard) +
                               " (" + cause + ")");
                } else {
                    ++stats.tasksFailed;
                    ++stats.retriesByCause[cause];
                    outcome = "failed:" + cause;
                }
                if (cause == "straggler")
                    ++stats.stragglersKilled;
            }
            const auto closed = lastClosedByShard.find(shard);
            if (closed != lastClosedByShard.end())
                stats.spans[closed->second].outcome = outcome;
            continue;
        }
        if (kind == "merge") {
            stats.mergedPath = event.at("path").asString();
            stats.bytesMerged = event.at("bytes").asInt();
            stats.instants.emplace_back(t, "merge");
            continue;
        }
        if (kind == "done") {
            stats.complete = event.at("complete").asBool();
            stats.interrupted = event.at("interrupted").asBool();
            continue;
        }
        // Unknown kinds are tolerated (forward compatibility within
        // the schema major version).
    }

    // Spans still open at the end of the stream (interrupted final
    // leg, or a live campaign) extend to the last event.
    for (const auto &[worker, index] : openByWorker)
        stats.spans[index].end =
            std::max(stats.spans[index].end, stats.lastT);
    stats.cacheMisses = static_cast<std::int64_t>(spawnedShards.size());
    return stats;
}

CampaignStats
CampaignStats::fromFile(const std::string &path)
{
    const jsonl::ReadResult read = jsonl::readLines(path);
    CampaignStats stats = fromEvents(read.lines);
    stats.journalPath = path;
    stats.truncatedTail = read.truncatedTail;
    return stats;
}

void
renderReport(const CampaignStats &stats, std::ostream &out)
{
    const bool logical = stats.clock == "logical";
    // Under the logical clock, "time" is the event sequence number —
    // still a faithful ordering, just not seconds.
    const std::string unit = logical ? "ev" : "s";

    out << "campaign " << stats.campaign << " — " << stats.shardCount
        << " shards, clock " << stats.clock << "\n";
    out << "status: "
        << (stats.complete
                ? "complete"
                : (stats.interrupted ? "interrupted" : "in progress"))
        << "\n";
    out << "journal: " << stats.events << " events, " << stats.legs
        << (stats.legs == 1 ? " leg" : " legs");
    if (stats.truncatedRepairs > 0)
        out << ", " << stats.truncatedRepairs << " torn tail"
            << (stats.truncatedRepairs == 1 ? "" : "s") << " repaired";
    out << "\n";
    if (stats.truncatedTail)
        out << "warning: journal ends mid-line (a writer died "
               "mid-append or is still running)\n";

    const double span = stats.span();
    double busy = 0.0;
    for (const AttemptSpan &attempt : stats.spans)
        busy += attempt.end - attempt.start;
    const std::vector<std::int32_t> workers = stats.workers();
    const std::int64_t done = stats.tasksDone + stats.cacheHits;

    TextTable breakdown({"measure", "value"});
    breakdown.addRow({"span_" + unit, TextTable::num(span, 3)});
    breakdown.addRow(
        {"worker_busy_" + unit, TextTable::num(busy, 3)});
    if (span > 0.0 && !workers.empty())
        breakdown.addRow(
            {"utilization_pct",
             TextTable::num(100.0 * busy /
                                (span * static_cast<double>(
                                            workers.size())),
                            1)});
    if (span > 0.0)
        breakdown.addRow(
            {"throughput_per_" + unit,
             TextTable::num(static_cast<double>(done) / span, 3)});
    breakdown.addRow({"tasks_done", std::to_string(done)});
    breakdown.addRow(
        {"tasks_failed", std::to_string(stats.tasksFailed)});
    breakdown.addRow({"spawned", std::to_string(stats.spawned)});
    breakdown.addRow({"retries", std::to_string(stats.retries)});
    breakdown.addRow({"stragglers_killed",
                      std::to_string(stats.stragglersKilled)});
    out << "\n" << breakdown.render("wall-clock breakdown");

    out << "\ncache: " << stats.cacheHits << " hit"
        << (stats.cacheHits == 1 ? "" : "s") << ", "
        << stats.cacheMisses << " miss"
        << (stats.cacheMisses == 1 ? "" : "es");
    if (stats.cacheHits + stats.cacheMisses > 0)
        out << " (hit rate "
            << TextTable::num(
                   100.0 * static_cast<double>(stats.cacheHits) /
                       static_cast<double>(stats.cacheHits +
                                           stats.cacheMisses),
                   1)
            << "%)";
    out << "\n";

    // Job-granularity line only when the campaign ever touched the
    // job cache, so reports over pre-jobcache journals (and shard-hit
    // campaigns) render byte-identically to before.
    if (stats.jobCacheHits + stats.jobsComputed > 0) {
        out << "jobs: " << stats.jobCacheHits << " from cache, "
            << stats.jobsComputed << " computed (hit rate "
            << TextTable::num(
                   100.0 * static_cast<double>(stats.jobCacheHits) /
                       static_cast<double>(stats.jobCacheHits +
                                           stats.jobsComputed),
                   1)
            << "%)\n";
    }

    if (!stats.retriesByCause.empty()) {
        TextTable causes({"cause", "count"});
        for (const auto &[cause, count] : stats.retriesByCause)
            causes.addRow({cause, std::to_string(count)});
        out << "\n" << causes.render("retry causes");
    }

    if (!workers.empty()) {
        TextTable table(
            {"worker", "attempts", "busy_" + unit, "util_pct"});
        for (const std::int32_t worker : workers) {
            std::int64_t attempts = 0;
            for (const AttemptSpan &attempt : stats.spans)
                if (attempt.worker == worker)
                    ++attempts;
            const double workerBusy = stats.busySeconds(worker);
            table.addRow(
                {std::to_string(worker), std::to_string(attempts),
                 TextTable::num(workerBusy, 3),
                 span > 0.0
                     ? TextTable::num(100.0 * workerBusy / span, 1)
                     : "-"});
        }
        out << "\n" << table.render("worker utilization");
    }

    if (!stats.mergedPath.empty())
        out << "\nmerged: " << stats.mergedPath << " ("
            << stats.bytesMerged << " bytes)\n";
}

void
writeChromeTrace(const CampaignStats &stats, std::ostream &out)
{
    // chrome://tracing / Perfetto "JSON object format": ts and dur in
    // microseconds; "X" = complete span, "i" = instant, "M" =
    // metadata. tid 0 is the orchestrator, tid w a worker slot.
    const auto us = [](double t) { return t * 1e6; };
    Json events = Json::array();

    const auto meta = [&](std::int32_t tid, const std::string &name) {
        Json event = Json::object();
        event.set("name", "thread_name");
        event.set("ph", "M");
        event.set("pid", 1);
        event.set("tid", tid);
        Json args = Json::object();
        args.set("name", name);
        event.set("args", std::move(args));
        events.push(std::move(event));
    };
    {
        Json event = Json::object();
        event.set("name", "process_name");
        event.set("ph", "M");
        event.set("pid", 1);
        event.set("tid", 0);
        Json args = Json::object();
        args.set("name", "lsqca campaign " + stats.campaign);
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    meta(0, "orchestrator");
    for (const std::int32_t worker : stats.workers())
        meta(worker, "worker " + std::to_string(worker));

    for (const AttemptSpan &span : stats.spans) {
        Json event = Json::object();
        event.set("name", "shard " + std::to_string(span.shard) +
                              " attempt " +
                              std::to_string(span.attempt));
        event.set("ph", "X");
        event.set("pid", 1);
        event.set("tid", span.worker);
        event.set("ts", us(span.start));
        event.set("dur", us(span.end - span.start));
        Json args = Json::object();
        args.set("shard", span.shard);
        args.set("attempt", span.attempt);
        args.set("outcome", span.outcome);
        event.set("args", std::move(args));
        events.push(std::move(event));
    }

    const auto instant = [&](double t, const std::string &name) {
        Json event = Json::object();
        event.set("name", name);
        event.set("ph", "i");
        event.set("pid", 1);
        event.set("tid", 0);
        event.set("ts", us(t));
        event.set("s", "p");
        events.push(std::move(event));
    };
    for (const auto &[t, label] : stats.instants)
        instant(t, label);

    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    out << doc.dump(0) << "\n";
}

} // namespace lsqca::service
