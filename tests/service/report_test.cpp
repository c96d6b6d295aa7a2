/**
 * @file
 * CampaignStats fold unit tests over hand-authored event streams:
 * attempt spans and their outcome labels, retry-cause tallies, cache
 * accounting, interrupted-leg span closure, and the Chrome-trace
 * emitter's structure — pinned independently of the orchestrator so
 * `lsqca report` keeps reconstructing history from events.jsonl alone.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/error.h"
#include "service/report.h"

namespace lsqca::service {
namespace {

std::vector<Json>
parseEvents(const std::vector<std::string> &lines)
{
    std::vector<Json> events;
    events.reserve(lines.size());
    for (const std::string &line : lines)
        events.push_back(Json::parse(line));
    return events;
}

/**
 * A logical-clock campaign: shard 0 crashes once then succeeds, shard
 * 1 is a cache hit, then merge + done. Mirrors what the orchestrator
 * writes (docs/METRICS.md), plus an `escalation` event of the kind
 * journals from the retired sampled estimator carry: readers tolerate
 * it as an unknown kind.
 */
std::vector<Json>
smokeEvents()
{
    return parseEvents({
        R"({"event":"journal","seq":1,"t":1,"schema":"lsqca-events-v1","clock":"logical"})",
        R"({"event":"submit","seq":2,"t":2,"campaign":"smoke","spec":"specs/smoke.json","shards":2,"workers":2,"max_attempts":3})",
        R"({"event":"cache_hit","seq":3,"t":3,"shard":1,"fingerprint":"0123456789abcdef"})",
        R"({"event":"spawn","seq":4,"t":4,"shard":0,"attempt":1,"worker":1})",
        R"({"event":"exit","seq":5,"t":5,"shard":0,"attempt":1,"worker":1,"code":75})",
        R"({"event":"retry","seq":6,"t":6,"shard":0,"attempt":1,"cause":"crash"})",
        R"({"event":"spawn","seq":7,"t":7,"shard":0,"attempt":2,"worker":1})",
        R"({"event":"exit","seq":8,"t":8,"shard":0,"attempt":2,"worker":1,"ok":true})",
        R"({"event":"task_done","seq":9,"t":9,"shard":0,"output":"shards/BENCH_smoke.shard0of2.json"})",
        R"({"event":"escalation","seq":10,"t":10,"shard":0,"entry":"adder/point#1","ci":0.5,"target_ci":0.1})",
        R"({"event":"merge","seq":11,"t":11,"path":"BENCH_smoke.json","shards":2,"bytes":1234})",
        R"({"event":"done","seq":12,"t":12,"complete":true,"interrupted":false,"spawned":2,"cache_hits":1,"retries":1,"stragglers_killed":0,"escalations":1})",
    });
}

TEST(CampaignStats, FoldsCountersSpansAndCauses)
{
    const CampaignStats stats =
        CampaignStats::fromEvents(smokeEvents());
    EXPECT_EQ(stats.clock, "logical");
    EXPECT_EQ(stats.campaign, "smoke");
    EXPECT_EQ(stats.specPath, "specs/smoke.json");
    EXPECT_EQ(stats.shardCount, 2);
    EXPECT_EQ(stats.maxAttempts, 3);
    EXPECT_EQ(stats.events, 12);
    EXPECT_EQ(stats.legs, 1);
    EXPECT_EQ(stats.spawned, 2);
    EXPECT_EQ(stats.cacheHits, 1);
    // One distinct task ever needed a spawn (shard 0, twice).
    EXPECT_EQ(stats.cacheMisses, 1);
    EXPECT_EQ(stats.retries, 1);
    EXPECT_EQ(stats.retriesByCause.at("crash"), 1);
    EXPECT_EQ(stats.stragglersKilled, 0);
    EXPECT_EQ(stats.tasksDone, 1);
    EXPECT_EQ(stats.tasksFailed, 0);
    EXPECT_TRUE(stats.complete);
    EXPECT_FALSE(stats.interrupted);
    EXPECT_EQ(stats.mergedPath, "BENCH_smoke.json");
    EXPECT_EQ(stats.bytesMerged, 1234);
    EXPECT_DOUBLE_EQ(stats.firstT, 1.0);
    EXPECT_DOUBLE_EQ(stats.lastT, 12.0);
    EXPECT_DOUBLE_EQ(stats.span(), 11.0);

    // The two attempts of shard 0, labeled by their verdict events.
    ASSERT_EQ(stats.spans.size(), 2u);
    EXPECT_EQ(stats.spans[0].shard, 0);
    EXPECT_EQ(stats.spans[0].attempt, 1);
    EXPECT_EQ(stats.spans[0].worker, 1);
    EXPECT_DOUBLE_EQ(stats.spans[0].start, 4.0);
    EXPECT_DOUBLE_EQ(stats.spans[0].end, 5.0);
    EXPECT_EQ(stats.spans[0].outcome, "retry:crash");
    EXPECT_EQ(stats.spans[1].attempt, 2);
    EXPECT_EQ(stats.spans[1].outcome, "done");
    EXPECT_DOUBLE_EQ(stats.busySeconds(1), 2.0);
    EXPECT_EQ(stats.workers(), std::vector<std::int32_t>{1});
    EXPECT_EQ(stats.events, 12);
    EXPECT_TRUE(stats.complete);
}

TEST(CampaignStats, FoldsRetiredEscalatedFields)
{
    // A journal from the retired sampled estimator: the exact rerun
    // of shard 0 carried "escalated" on its spawn/exit/task_done. The
    // fields are ignored; the rerun folds as another attempt.
    const CampaignStats stats =
        CampaignStats::fromEvents(parseEvents({
            R"({"event":"journal","seq":1,"t":1,"schema":"lsqca-events-v1","clock":"logical"})",
            R"({"event":"submit","seq":2,"t":2,"campaign":"smoke","shards":1,"workers":1,"max_attempts":3})",
            R"({"event":"spawn","seq":3,"t":3,"shard":0,"attempt":1,"worker":1})",
            R"({"event":"exit","seq":4,"t":4,"shard":0,"attempt":1,"worker":1,"ok":true})",
            R"({"event":"task_done","seq":5,"t":5,"shard":0,"output":"shards/BENCH_smoke.json"})",
            R"({"event":"escalation","seq":6,"t":6,"shard":0,"entry":"adder/point#1","ci":0.5,"target_ci":0.1})",
            R"({"event":"spawn","seq":7,"t":7,"shard":0,"attempt":1,"worker":1,"escalated":true})",
            R"({"event":"exit","seq":8,"t":8,"shard":0,"attempt":1,"worker":1,"ok":true,"escalated":true})",
            R"({"event":"task_done","seq":9,"t":9,"shard":0,"escalated":true,"output":"shards/exact/BENCH_smoke.json"})",
            R"({"event":"done","seq":10,"t":10,"complete":true,"interrupted":false,"spawned":2,"cache_hits":0,"retries":0,"stragglers_killed":0,"escalations":1})",
        }));
    EXPECT_EQ(stats.spawned, 2);
    EXPECT_EQ(stats.tasksDone, 2);
    EXPECT_EQ(stats.cacheMisses, 1);
    ASSERT_EQ(stats.spans.size(), 2u);
    EXPECT_EQ(stats.spans[1].outcome, "done");
    EXPECT_TRUE(stats.complete);
}

TEST(CampaignStats, OrphanSpansCloseAtLegBoundaryAsInterrupted)
{
    // Leg 1 dies with a worker running (no exit event — the
    // orchestrator was killed); leg 2 resumes and finishes the shard.
    const CampaignStats stats =
        CampaignStats::fromEvents(parseEvents({
            R"({"event":"journal","seq":1,"t":1,"schema":"lsqca-events-v1","clock":"logical"})",
            R"({"event":"submit","seq":2,"t":2,"campaign":"smoke","shards":1,"workers":1,"max_attempts":3})",
            R"({"event":"spawn","seq":3,"t":3,"shard":0,"attempt":1,"worker":1})",
            R"({"event":"resume","seq":4,"t":4,"campaign":"smoke","shards":1,"workers":1,"max_attempts":3})",
            R"({"event":"spawn","seq":5,"t":5,"shard":0,"attempt":2,"worker":1})",
        }));
    EXPECT_EQ(stats.legs, 2);
    ASSERT_EQ(stats.spans.size(), 2u);
    // The orphan closed where its leg ended, labeled interrupted.
    EXPECT_EQ(stats.spans[0].outcome, "interrupted");
    EXPECT_DOUBLE_EQ(stats.spans[0].end, 4.0);
    // The still-open final span extends to the end of the stream.
    EXPECT_EQ(stats.spans[1].outcome, "interrupted");
    EXPECT_DOUBLE_EQ(stats.spans[1].end, 5.0);
    EXPECT_FALSE(stats.complete);
}

TEST(CampaignStats, StragglerKillsAndFailuresAreTallied)
{
    const CampaignStats stats =
        CampaignStats::fromEvents(parseEvents({
            R"({"event":"journal","seq":1,"t":1,"schema":"lsqca-events-v1","clock":"logical"})",
            R"({"event":"submit","seq":2,"t":2,"campaign":"smoke","shards":2,"workers":2,"max_attempts":1})",
            R"({"event":"spawn","seq":3,"t":3,"shard":0,"attempt":1,"worker":1})",
            R"({"event":"exit","seq":4,"t":4,"shard":0,"attempt":1,"worker":1,"killed":true})",
            R"({"event":"task_failed","seq":5,"t":5,"shard":0,"attempts":1,"cause":"straggler"})",
            R"({"event":"spawn","seq":6,"t":6,"shard":1,"attempt":1,"worker":2})",
            R"({"event":"exit","seq":7,"t":7,"shard":1,"attempt":1,"worker":2,"code":124})",
            R"({"event":"task_failed","seq":8,"t":8,"shard":1,"attempts":1,"cause":"timeout"})",
        }));
    EXPECT_EQ(stats.tasksFailed, 2);
    EXPECT_EQ(stats.retries, 0);
    EXPECT_EQ(stats.stragglersKilled, 1);
    EXPECT_EQ(stats.retriesByCause.at("straggler"), 1);
    EXPECT_EQ(stats.retriesByCause.at("timeout"), 1);
    ASSERT_EQ(stats.spans.size(), 2u);
    EXPECT_EQ(stats.spans[0].outcome, "failed:straggler");
    EXPECT_EQ(stats.spans[1].outcome, "failed:timeout");
    EXPECT_EQ(stats.workers(),
              (std::vector<std::int32_t>{1, 2}));
}

TEST(CampaignStats, RejectsStreamsWithoutAHeader)
{
    EXPECT_THROW(CampaignStats::fromEvents({}), ConfigError);
    EXPECT_THROW(CampaignStats::fromEvents(parseEvents({
                     R"({"event":"submit","seq":1,"t":1,"campaign":"x"})",
                 })),
                 ConfigError);
    EXPECT_THROW(
        CampaignStats::fromEvents(parseEvents({
            R"({"event":"journal","seq":1,"t":1,"schema":"lsqca-events-v9","clock":"logical"})",
        })),
        ConfigError);
}

TEST(RenderReport, ShowsTheTablesAndCacheRate)
{
    const CampaignStats stats =
        CampaignStats::fromEvents(smokeEvents());
    std::ostringstream out;
    renderReport(stats, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("campaign smoke"), std::string::npos) << text;
    EXPECT_NE(text.find("status: complete"), std::string::npos);
    EXPECT_NE(text.find("wall-clock breakdown"), std::string::npos);
    EXPECT_NE(text.find("retry causes"), std::string::npos);
    EXPECT_NE(text.find("crash"), std::string::npos);
    EXPECT_EQ(text.find("escalation"), std::string::npos) << text;
    EXPECT_NE(text.find("worker utilization"), std::string::npos);
    EXPECT_NE(text.find("hit rate 50.0%"), std::string::npos) << text;
    EXPECT_NE(text.find("BENCH_smoke.json (1234 bytes)"),
              std::string::npos)
        << text;

    // Deterministic: the same stats render byte-identically.
    std::ostringstream again;
    renderReport(stats, again);
    EXPECT_EQ(text, again.str());
}

TEST(ChromeTrace, EmitsMetadataSpansAndInstants)
{
    const CampaignStats stats =
        CampaignStats::fromEvents(smokeEvents());
    std::ostringstream out;
    writeChromeTrace(stats, out);
    const Json doc = Json::parse(out.str());
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    const Json &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    int spans = 0, instants = 0, metadata = 0;
    for (const Json &event : events.items()) {
        const std::string ph = event.at("ph").asString();
        if (ph == "X") {
            ++spans;
            // Monotone: every span has non-negative duration on a
            // real worker track.
            EXPECT_GE(event.at("dur").asDouble(), 0.0);
            EXPECT_GE(event.at("ts").asDouble(), 0.0);
            EXPECT_GT(event.at("tid").asInt(), 0);
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(event.at("tid").asInt(), 0);
        } else {
            EXPECT_EQ(ph, "M");
            ++metadata;
        }
    }
    EXPECT_EQ(spans, 2);
    // cache hit + retry + merge on the orchestrator track.
    EXPECT_EQ(instants, 3);
    // process_name + orchestrator + one worker thread.
    EXPECT_EQ(metadata, 3);
}

} // namespace
} // namespace lsqca::service
