/**
 * @file
 * End-to-end orchestrator coverage against the real `lsqca` binary
 * (LSQCA_CLI_BIN) as the worker fleet. The invariant every test pins:
 * whatever happens on the way there — crashes, interrupts, retries,
 * cache hits — the merged campaign artifact is byte-identical to a
 * direct unsharded run under --no-timing.
 */

#include <gtest/gtest.h>

#include "api/registry.h"
#include "api/spec.h"
#include "common/error.h"
#include "common/fs.h"
#include "common/hash.h"
#include "service/journal.h"
#include "service/orchestrator.h"
#include "service/report.h"
#include "service_test_util.h"

namespace lsqca::service {
namespace {

using api::BenchmarkRegistry;
using api::SweepSpec;

/** Direct in-process --no-timing run; returns the BENCH file bytes. */
std::string
goldenRun(const std::string &specPath, const std::string &outDir)
{
    const SweepSpec spec = SweepSpec::load(specPath);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    api::RunSpecOptions options;
    options.threads = 2;
    options.outDir = outDir;
    options.noTiming = true;
    const api::SpecRun run = api::runSpec(spec, registry, options);
    return fsutil::readFile(run.jsonPath);
}

OrchestratorOptions
baseOptions(const std::string &stateDir)
{
    OrchestratorOptions options;
    options.stateDir = stateDir;
    options.workerExe = test::kCliBin;
    options.workers = 2;
    options.noTiming = true;
    options.pollSeconds = 0.002;
    return options;
}

TEST(StragglerDeadline, IsFactorTimesMedianWithFloor)
{
    EXPECT_DOUBLE_EQ(stragglerDeadline(10.0, 4.0, 10.0), 40.0);
    // Millisecond shards are protected by the floor.
    EXPECT_DOUBLE_EQ(stragglerDeadline(0.006, 4.0, 10.0), 10.0);
    EXPECT_DOUBLE_EQ(stragglerDeadline(2.0, 1.0, 0.0), 2.0);
}

TEST(Orchestrator, SubmitMatchesDirectRunByteForByte)
{
    const std::string dir = test::scratchDir("submit");
    const std::string golden =
        goldenRun(test::kSmokeSpec, dir + "/golden");

    OrchestratorOptions options = baseOptions(dir + "/state");
    options.shards = 4;
    Orchestrator orchestrator(options);
    const CampaignReport report =
        orchestrator.submit(test::kSmokeSpec);

    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.spawned, 4);
    EXPECT_EQ(report.cacheHits, 0);
    EXPECT_EQ(report.retries, 0);
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
    for (const ShardTask &task : report.queue.tasks) {
        EXPECT_EQ(task.status, TaskStatus::Done);
        EXPECT_EQ(task.attempts, 1);
        EXPECT_FALSE(task.cached);
        EXPECT_TRUE(task.lastError.empty());
    }
    // The on-disk queue matches the returned snapshot.
    const QueueState onDisk = Orchestrator::inspect(dir + "/state");
    EXPECT_EQ(onDisk.toJson().dump(), report.queue.toJson().dump());
}

TEST(Orchestrator, SubmitRefusesAnOccupiedStateDir)
{
    const std::string dir = test::scratchDir("occupied");
    OrchestratorOptions options = baseOptions(dir + "/state");
    options.shards = 2;
    Orchestrator(options).submit(test::kSmokeSpec);
    EXPECT_THROW(Orchestrator(options).submit(test::kSmokeSpec),
                 ConfigError);
}

TEST(Orchestrator, CrashedWorkersAreRequeuedAndMergeStaysGolden)
{
    const std::string dir = test::scratchDir("crash");
    const std::string golden =
        goldenRun(test::kSmokeSpec, dir + "/golden");

    OrchestratorOptions options = baseOptions(dir + "/state");
    options.shards = 3;
    // Every shard's first attempt dies mid-shard after one job (the
    // satellite's "worker killed mid-shard" hook); retries run clean.
    options.firstAttemptExtraArgs = {"--die-after", "1"};
    const CampaignReport report =
        Orchestrator(options).submit(test::kSmokeSpec);

    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.spawned, 6);
    EXPECT_EQ(report.retries, 3);
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
    for (const ShardTask &task : report.queue.tasks)
        EXPECT_EQ(task.attempts, 2);
}

TEST(Orchestrator, AttemptBudgetExhaustionMarksShardsFailed)
{
    const std::string dir = test::scratchDir("budget");
    OrchestratorOptions options = baseOptions(dir + "/state");
    options.shards = 2;
    options.maxAttempts = 2;
    // Die on *every* attempt: the budget must run out.
    options.extraWorkerArgs = {"--die-after", "0"};
    const CampaignReport report =
        Orchestrator(options).submit(test::kSmokeSpec);

    EXPECT_FALSE(report.complete);
    EXPECT_TRUE(report.mergedPath.empty());
    EXPECT_EQ(report.spawned, 4);
    for (const ShardTask &task : report.queue.tasks) {
        EXPECT_EQ(task.status, TaskStatus::Failed);
        EXPECT_EQ(task.attempts, 2);
        EXPECT_NE(task.lastError.find("died mid-shard"),
                  std::string::npos)
            << task.lastError;
    }
}

TEST(Orchestrator, InterruptResumePersistsAttemptCounts)
{
    const std::string dir = test::scratchDir("interrupt");
    const std::string golden =
        goldenRun(test::kSmokeSpec, dir + "/golden");

    OrchestratorOptions options = baseOptions(dir + "/state");
    options.workers = 1;
    options.shards = 3;
    options.stopAfterDispatches = 1;
    const CampaignReport first =
        Orchestrator(options).submit(test::kSmokeSpec);
    EXPECT_TRUE(first.interrupted);
    EXPECT_FALSE(first.complete);
    EXPECT_EQ(first.spawned, 1);

    // The dispatch was recorded before the "machine died": shard 0 is
    // still marked running with one attempt on the books.
    const QueueState stranded = Orchestrator::inspect(dir + "/state");
    EXPECT_EQ(stranded.tasks[0].status, TaskStatus::Running);
    EXPECT_EQ(stranded.tasks[0].attempts, 1);
    EXPECT_EQ(stranded.tasks[1].attempts, 0);

    OrchestratorOptions resumeOptions = baseOptions(dir + "/state");
    const CampaignReport second =
        Orchestrator(resumeOptions).resume();
    EXPECT_TRUE(second.complete);
    EXPECT_EQ(fsutil::readFile(second.mergedPath), golden);
    // Shard 0's interrupted attempt still counts: 1 stranded + 1
    // clean respawn; the untouched shards ran once.
    EXPECT_EQ(second.queue.tasks[0].attempts, 2);
    EXPECT_EQ(second.queue.tasks[1].attempts, 1);
    EXPECT_EQ(second.queue.tasks[2].attempts, 1);
}

TEST(Orchestrator, ResumeWithoutCampaignThrows)
{
    const std::string dir = test::scratchDir("nocampaign");
    EXPECT_THROW(Orchestrator(baseOptions(dir + "/state")).resume(),
                 ConfigError);
}

TEST(Orchestrator, ResumeRejectsASpecThatChangedUnderTheCampaign)
{
    const std::string dir = test::scratchDir("drift");
    const std::string specCopy = dir + "/smoke.json";
    fsutil::writeFileAtomic(specCopy, fsutil::readFile(test::kSmokeSpec));

    OrchestratorOptions options = baseOptions(dir + "/state");
    options.workers = 1;
    options.shards = 2;
    options.stopAfterDispatches = 1;
    EXPECT_TRUE(Orchestrator(options).submit(specCopy).interrupted);

    // Change the experiment content (one benchmark's width) and try
    // to continue: the fingerprints no longer match the queue.
    std::string text = fsutil::readFile(specCopy);
    const std::size_t at = text.find("\"width\": 16");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 11, "\"width\": 17");
    fsutil::writeFileAtomic(specCopy, text);
    try {
        Orchestrator(baseOptions(dir + "/state")).resume();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "changed under the campaign"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Orchestrator, RaisedMaxAttemptsReopensFailedShards)
{
    const std::string dir = test::scratchDir("reopen");
    const std::string golden =
        goldenRun(test::kSmokeSpec, dir + "/golden");

    OrchestratorOptions options = baseOptions(dir + "/state");
    options.shards = 2;
    options.maxAttempts = 1;
    options.extraWorkerArgs = {"--die-after", "0"};
    EXPECT_FALSE(
        Orchestrator(options).submit(test::kSmokeSpec).complete);

    OrchestratorOptions retry = baseOptions(dir + "/state");
    retry.maxAttempts = 3; // raise the budget, drop the crash hook
    const CampaignReport report = Orchestrator(retry).resume();
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
}

/**
 * The acceptance path on the full Fig. 13 sweep: submit with 4
 * workers, interrupt once, resume to a byte-identical artifact, then
 * re-submit against the same cache and watch every worker spawn
 * disappear.
 */
TEST(Orchestrator, Fig13InterruptResumeThenCachedResubmit)
{
    const std::string dir = test::scratchDir("fig13");
    const std::string golden =
        goldenRun(test::kFig13Spec, dir + "/golden");
    const std::string cacheDir = dir + "/cache";

    OrchestratorOptions options = baseOptions(dir + "/a");
    options.workers = 4;
    options.shards = 8;
    options.cacheDir = cacheDir;
    options.stopAfterDispatches = 3;
    const CampaignReport interrupted =
        Orchestrator(options).submit(test::kFig13Spec);
    EXPECT_TRUE(interrupted.interrupted);

    OrchestratorOptions resumeOptions = baseOptions(dir + "/a");
    resumeOptions.workers = 4;
    resumeOptions.cacheDir = cacheDir;
    const CampaignReport resumed =
        Orchestrator(resumeOptions).resume();
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(fsutil::readFile(resumed.mergedPath), golden);
    // Every shard ran at least once across the two legs; the three
    // interrupted attempts may or may not have re-run.
    EXPECT_GE(interrupted.spawned + resumed.spawned, 8);

    // Second campaign, same cache: all shards skip, zero spawns
    // (counted, per the acceptance criterion), same bytes.
    OrchestratorOptions again = baseOptions(dir + "/b");
    again.workers = 4;
    again.shards = 8;
    again.cacheDir = cacheDir;
    const CampaignReport cached =
        Orchestrator(again).submit(test::kFig13Spec);
    EXPECT_TRUE(cached.complete);
    EXPECT_EQ(cached.spawned, 0);
    EXPECT_EQ(cached.cacheHits, 8);
    EXPECT_EQ(fsutil::readFile(cached.mergedPath), golden);
    for (const ShardTask &task : cached.queue.tasks)
        EXPECT_TRUE(task.cached);

    // The acceptance contract: the journal ALONE reconstructs the
    // interrupted-and-resumed campaign's full history, agreeing with
    // the orchestrator's own counters summed across both legs.
    ASSERT_EQ(resumed.journalPath, Journal::pathFor(dir + "/a"));
    const CampaignStats history =
        CampaignStats::fromFile(resumed.journalPath);
    EXPECT_EQ(history.legs, 2);
    EXPECT_EQ(history.shardCount, 8);
    EXPECT_TRUE(history.complete);
    EXPECT_EQ(history.spawned,
              interrupted.spawned + resumed.spawned);
    EXPECT_EQ(history.cacheHits,
              interrupted.cacheHits + resumed.cacheHits);
    EXPECT_EQ(history.retries, interrupted.retries + resumed.retries);
    EXPECT_EQ(history.stragglersKilled,
              interrupted.stragglersKilled + resumed.stragglersKilled);
    // Every shard finished exactly once, by work or by cache.
    EXPECT_EQ(history.tasksDone + history.cacheHits, 8);
    EXPECT_EQ(history.tasksFailed, 0);
    EXPECT_EQ(history.mergedPath, "BENCH_fig13_cpi.json");
    EXPECT_GT(history.bytesMerged, 0);
    // One attempt span per spawn, each on a real worker slot 1..4.
    EXPECT_EQ(static_cast<std::int64_t>(history.spans.size()),
              history.spawned);
    for (const AttemptSpan &span : history.spans) {
        EXPECT_GE(span.worker, 1);
        EXPECT_LE(span.worker, 4);
        EXPECT_GE(span.end, span.start);
    }

    // The cached resubmit's journal: 8 hits, zero spawns — and the
    // final metrics snapshot agrees with both.
    const CampaignStats rerun =
        CampaignStats::fromFile(Journal::pathFor(dir + "/b"));
    EXPECT_TRUE(rerun.complete);
    EXPECT_EQ(rerun.spawned, 0);
    EXPECT_EQ(rerun.cacheHits, 8);
    EXPECT_EQ(rerun.cacheMisses, 0);
    EXPECT_TRUE(rerun.spans.empty());
    EXPECT_EQ(cached.metrics.at("service.spawns").asInt(), 0);
    EXPECT_EQ(cached.metrics.at("service.cache.hits").asInt(), 8);
    EXPECT_EQ(cached.metricsPath, dir + "/b/metrics.json");
    EXPECT_TRUE(fsutil::exists(cached.metricsPath));
}

TEST(Orchestrator, LogicalClockCampaignsJournalByteIdentically)
{
    // Two identical single-worker campaigns under --clock logical
    // write byte-identical journals: every `t` is the sequence number
    // and wall-time payload fields are suppressed (docs/METRICS.md).
    const std::string dir = test::scratchDir("logical");
    const auto campaign = [&](const std::string &state) {
        OrchestratorOptions options = baseOptions(state);
        options.workers = 1;
        options.shards = 2;
        options.clock = JournalClock::Logical;
        const CampaignReport report =
            Orchestrator(options).submit(test::kSmokeSpec);
        EXPECT_TRUE(report.complete);
        return fsutil::readFile(report.journalPath);
    };
    const std::string first = campaign(dir + "/a");
    EXPECT_EQ(first, campaign(dir + "/b"));
    EXPECT_NE(first.find("\"clock\":\"logical\""), std::string::npos);
    EXPECT_EQ(first.find("\"wall\""), std::string::npos);
    EXPECT_EQ(first.find("\"pid\""), std::string::npos);
}

TEST(Orchestrator, NoJournalLeavesNoEventsFileAndMatchesGolden)
{
    const std::string dir = test::scratchDir("nojournal");
    const std::string golden =
        goldenRun(test::kSmokeSpec, dir + "/golden");
    OrchestratorOptions options = baseOptions(dir + "/state");
    options.shards = 2;
    options.journal = false;
    const CampaignReport report =
        Orchestrator(options).submit(test::kSmokeSpec);
    EXPECT_TRUE(report.complete);
    EXPECT_TRUE(report.journalPath.empty());
    EXPECT_TRUE(report.metricsPath.empty());
    EXPECT_FALSE(
        fsutil::exists(Journal::pathFor(dir + "/state")));
    EXPECT_FALSE(fsutil::exists(dir + "/state/metrics.json"));
    // Observability off never changes the campaign artifact.
    EXPECT_EQ(fsutil::readFile(report.mergedPath), golden);
}

TEST(ShardFingerprints, AreStableDistinctAndContentAddressed)
{
    const SweepSpec spec = SweepSpec::load(test::kSmokeSpec);
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    const auto jobs = api::expandSpec(spec, registry);

    const auto prints = api::shardFingerprints(spec, jobs, 4, true);
    ASSERT_EQ(prints.size(), 4u);
    for (const std::string &print : prints)
        EXPECT_TRUE(isFingerprint(print)) << print;
    for (std::size_t i = 0; i < prints.size(); ++i)
        for (std::size_t j = i + 1; j < prints.size(); ++j)
            EXPECT_NE(prints[i], prints[j]);

    // Deterministic across recomputation…
    EXPECT_EQ(api::shardFingerprints(spec, jobs, 4, true), prints);
    // …invariant under a serialization round-trip of the spec (the
    // address is the expanded content, not the file's formatting)…
    const SweepSpec reloaded = SweepSpec::fromJson(spec.toJson());
    const auto reloadedJobs = api::expandSpec(reloaded, registry);
    EXPECT_EQ(api::shardFingerprints(reloaded, reloadedJobs, 4, true),
              prints);
    // …and sensitive to everything that changes the artifact bytes.
    EXPECT_NE(api::shardFingerprints(spec, jobs, 4, false), prints);
    EXPECT_NE(api::shardFingerprints(spec, jobs, 5, true)[0],
              prints[0]);
}

TEST(RunSpec, SeedCheckMismatchFailsBeforeSimulating)
{
    const SweepSpec spec = SweepSpec::load(test::kSmokeSpec);
    BenchmarkRegistry registry = BenchmarkRegistry::paper();
    api::RunSpecOptions options;
    options.writeJson = false;
    options.seedCheck = "0123456789abcdef";
    try {
        api::runSpec(spec, registry, options);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("--seed-check mismatch"),
                  std::string::npos)
            << e.what();
    }

    // The matching fingerprint passes.
    const auto jobs = api::expandSpec(spec, registry);
    options.seedCheck =
        api::shardFingerprint(spec, jobs, api::ShardRange{}, false);
    EXPECT_NO_THROW(api::runSpec(spec, registry, options));
}

} // namespace
} // namespace lsqca::service
