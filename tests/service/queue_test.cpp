/**
 * @file
 * The queue document is the campaign's source of truth, so its
 * round-trip must be exact, its parse strict (a corrupted or
 * hand-edited queue.json must fail loudly, not resurrect a wrong
 * campaign), and its crash-recovery transition (resetRunning) must
 * keep attempt counts — that is what makes "attempts persist across
 * orchestrator restart" true.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/fs.h"
#include "service/queue.h"
#include "service_test_util.h"

namespace lsqca::service {
namespace {

QueueState
sampleState()
{
    QueueState state;
    state.campaign = "smoke";
    state.specPath = "/tmp/specs/smoke.json";
    state.shardCount = 3;
    state.noTiming = true;
    state.maxAttempts = 5;
    for (std::int32_t i = 0; i < 3; ++i) {
        ShardTask task;
        task.index = i;
        task.fingerprint = "00112233445566" + std::to_string(70 + i);
        state.tasks.push_back(task);
    }
    state.tasks[0].status = TaskStatus::Done;
    state.tasks[0].attempts = 1;
    state.tasks[0].wallSeconds = 0.25;
    state.tasks[0].output = "shards/BENCH_smoke.shard0of3.json";
    state.tasks[1].status = TaskStatus::Running;
    state.tasks[1].attempts = 2;
    state.tasks[1].lastError = "worker signal 9";
    state.tasks[2].cached = true;
    return state;
}

TEST(QueueState, RoundTripsThroughJson)
{
    const QueueState state = sampleState();
    const QueueState back = QueueState::fromJson(state.toJson());
    EXPECT_EQ(back.campaign, state.campaign);
    EXPECT_EQ(back.specPath, state.specPath);
    EXPECT_EQ(back.shardCount, state.shardCount);
    EXPECT_EQ(back.noTiming, state.noTiming);
    EXPECT_EQ(back.maxAttempts, state.maxAttempts);
    ASSERT_EQ(back.tasks.size(), state.tasks.size());
    for (std::size_t i = 0; i < state.tasks.size(); ++i) {
        EXPECT_EQ(back.tasks[i].index, state.tasks[i].index);
        EXPECT_EQ(back.tasks[i].fingerprint,
                  state.tasks[i].fingerprint);
        EXPECT_EQ(back.tasks[i].status, state.tasks[i].status);
        EXPECT_EQ(back.tasks[i].attempts, state.tasks[i].attempts);
        EXPECT_EQ(back.tasks[i].wallSeconds,
                  state.tasks[i].wallSeconds);
        EXPECT_EQ(back.tasks[i].cached, state.tasks[i].cached);
        EXPECT_EQ(back.tasks[i].output, state.tasks[i].output);
        EXPECT_EQ(back.tasks[i].lastError, state.tasks[i].lastError);
    }
    // And byte-stable: dump(parse(dump)) == dump.
    EXPECT_EQ(back.toJson().dump(), state.toJson().dump());
}

TEST(QueueState, SaveAndLoad)
{
    const std::string dir = test::scratchDir("queue");
    const std::string path = dir + "/queue.json";
    const QueueState state = sampleState();
    state.save(path);
    const QueueState back = QueueState::load(path);
    EXPECT_EQ(back.toJson().dump(), state.toJson().dump());
    // No stale temp file left behind by the atomic write.
    EXPECT_EQ(fsutil::listFiles(dir).size(), 1u);
}

TEST(QueueState, LoadErrorsCarryThePath)
{
    const std::string dir = test::scratchDir("badqueue");
    const std::string path = dir + "/queue.json";
    fsutil::writeFileAtomic(path, "{\"schema\": \"nope\"}");
    try {
        QueueState::load(path);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
}

TEST(QueueState, ParseIsStrict)
{
    const Json good = sampleState().toJson();

    Json wrongSchema = good;
    wrongSchema.set("schema", "lsqca-queue-v0");
    EXPECT_THROW(QueueState::fromJson(wrongSchema), ConfigError);

    Json unknownKey = good;
    unknownKey.set("surprise", 1);
    EXPECT_THROW(QueueState::fromJson(unknownKey), ConfigError);

    // Task arity must match shard_count.
    Json wrongCount = good;
    wrongCount.set("shard_count", 4);
    EXPECT_THROW(QueueState::fromJson(wrongCount), ConfigError);

    // Tasks must arrive ordered by shard index.
    QueueState shuffled = sampleState();
    std::swap(shuffled.tasks[0], shuffled.tasks[1]);
    EXPECT_THROW(QueueState::fromJson(shuffled.toJson()), ConfigError);

    QueueState badFingerprint = sampleState();
    badFingerprint.tasks[0].fingerprint = "not-hex!";
    EXPECT_THROW(QueueState::fromJson(badFingerprint.toJson()),
                 ConfigError);
}

/** The ConfigError message of parsing @p doc (fails when none). */
std::string
parseError(const Json &doc)
{
    try {
        QueueState::fromJson(doc);
    } catch (const ConfigError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected ConfigError";
    return "";
}

TEST(QueueState, RejectsRetiredEstimatorTaskKeys)
{
    // Queue documents from campaigns of the retired sampled estimator
    // carried a per-task "mode" and appended "escalated" reruns past
    // shard_count. Both are refused by name, never resumed as exact.
    const Json good = sampleState().toJson();
    const auto withTasks = [&](const std::vector<Json> &extra,
                               const std::string &key, Json value) {
        Json doc = good;
        Json tasks = Json::array();
        for (const Json &task : good.at("tasks").items()) {
            Json copy = task;
            if (tasks.size() == 0 && extra.empty())
                copy.set(key, value);
            tasks.push(std::move(copy));
        }
        for (Json task : extra) {
            task.set(key, value);
            tasks.push(std::move(task));
        }
        doc.set("tasks", std::move(tasks));
        return doc;
    };

    const std::string mode =
        parseError(withTasks({}, "mode", Json("sampled")));
    EXPECT_NE(mode.find("\"mode\""), std::string::npos) << mode;

    const Json rerun = good.at("tasks").items().front();
    const std::string escalated =
        parseError(withTasks({rerun}, "escalated", Json(true)));
    EXPECT_NE(escalated.find("\"escalated\""), std::string::npos)
        << escalated;

    // Without the retired key, a task past shard_count is still
    // refused: exactly one task per shard, in index order.
    Json extra = good;
    Json tasks = good.at("tasks");
    tasks.push(rerun);
    extra.set("tasks", std::move(tasks));
    const std::string order = parseError(extra);
    EXPECT_NE(order.find("ordered by shard index"), std::string::npos)
        << order;
    Json missing = good;
    missing.set("shard_count", 4);
    const std::string count = parseError(missing);
    EXPECT_NE(count.find("exactly one task per shard"), std::string::npos)
        << count;
}

TEST(QueueState, TaskStatusNamesRoundTrip)
{
    for (const TaskStatus status :
         {TaskStatus::Pending, TaskStatus::Running, TaskStatus::Done,
          TaskStatus::Failed})
        EXPECT_EQ(taskStatusFromName(taskStatusName(status)), status);
    EXPECT_THROW(taskStatusFromName("exploded"), ConfigError);
}

TEST(QueueState, ResetRunningKeepsAttempts)
{
    QueueState state = sampleState();
    EXPECT_EQ(state.resetRunning(), 1u);
    EXPECT_EQ(state.tasks[1].status, TaskStatus::Pending);
    EXPECT_EQ(state.tasks[1].attempts, 2);
    EXPECT_NE(state.tasks[1].lastError.find("orchestrator stopped"),
              std::string::npos);
    // Done and pending tasks are untouched.
    EXPECT_EQ(state.tasks[0].status, TaskStatus::Done);
    EXPECT_EQ(state.tasks[2].status, TaskStatus::Pending);
    EXPECT_EQ(state.resetRunning(), 0u);
}

TEST(QueueState, StatusCounts)
{
    const QueueState state = sampleState();
    EXPECT_EQ(state.countWithStatus(TaskStatus::Done), 1u);
    EXPECT_EQ(state.countWithStatus(TaskStatus::Running), 1u);
    EXPECT_EQ(state.countWithStatus(TaskStatus::Pending), 1u);
    EXPECT_EQ(state.countWithStatus(TaskStatus::Failed), 0u);
    EXPECT_FALSE(state.allDone());

    QueueState done = state;
    for (ShardTask &task : done.tasks)
        task.status = TaskStatus::Done;
    EXPECT_TRUE(done.allDone());
}

} // namespace
} // namespace lsqca::service
