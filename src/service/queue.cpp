#include "service/queue.h"

#include "api/json_reader.h"
#include "common/error.h"
#include "common/fs.h"
#include "common/hash.h"

namespace lsqca::service {

const char *
taskStatusName(TaskStatus status)
{
    switch (status) {
    case TaskStatus::Pending:
        return "pending";
    case TaskStatus::Running:
        return "running";
    case TaskStatus::Done:
        return "done";
    case TaskStatus::Failed:
        return "failed";
    }
    throw InternalError("unhandled TaskStatus");
}

TaskStatus
taskStatusFromName(const std::string &name)
{
    for (const TaskStatus status :
         {TaskStatus::Pending, TaskStatus::Running, TaskStatus::Done,
          TaskStatus::Failed}) {
        if (name == taskStatusName(status))
            return status;
    }
    throw ConfigError("unknown task status \"" + name +
                      "\" (pending|running|done|failed)");
}

QueueState
QueueState::fromJson(const Json &doc)
{
    QueueState state;
    api::ObjectReader reader(doc, "queue");
    const Json &schema = reader.require("schema");
    LSQCA_REQUIRE(schema.isString() &&
                      schema.asString() == kQueueSchema,
                  std::string("queue.schema must be \"") + kQueueSchema +
                      "\"");
    reader.readString("campaign", state.campaign);
    LSQCA_REQUIRE(!state.campaign.empty(),
                  "queue.campaign must be set");
    reader.readString("spec_path", state.specPath);
    LSQCA_REQUIRE(!state.specPath.empty(),
                  "queue.spec_path must be set");
    reader.readInt32("shard_count", state.shardCount, 1, 1 << 20);
    reader.readBool("no_timing", state.noTiming);
    reader.readInt32("max_attempts", state.maxAttempts, 1, 1000);
    const Json &tasks = reader.require("tasks");
    LSQCA_REQUIRE(tasks.isArray(), "queue.tasks must be an array");
    for (const Json &taskDoc : tasks.items()) {
        api::ObjectReader taskReader(taskDoc, "queue task");
        ShardTask task;
        taskReader.readInt32("index", task.index, 0,
                             state.shardCount - 1);
        taskReader.readString("fingerprint", task.fingerprint);
        LSQCA_REQUIRE(isFingerprint(task.fingerprint),
                      "queue task fingerprint must be 16 hex digits");
        std::string status;
        taskReader.readString("status", status);
        task.status = taskStatusFromName(status);
        taskReader.readInt32("attempts", task.attempts, 0, 1000000);
        taskReader.readDouble("wall_seconds", task.wallSeconds, 0.0,
                              1e12);
        taskReader.readBool("cached", task.cached);
        taskReader.readString("output", task.output);
        taskReader.readString("last_error", task.lastError);
        taskReader.readInt32("jobs_cached", task.jobsCached, 0,
                             1 << 30);
        taskReader.readInt32("jobs_computed", task.jobsComputed, 0,
                             1 << 30);
        taskReader.finish();
        LSQCA_REQUIRE(task.index ==
                          static_cast<std::int32_t>(state.tasks.size()),
                      "queue tasks must be ordered by shard index");
        state.tasks.push_back(std::move(task));
    }
    LSQCA_REQUIRE(state.tasks.size() ==
                      static_cast<std::size_t>(state.shardCount),
                  "queue.tasks must hold exactly one task per shard");
    reader.finish();
    return state;
}

Json
QueueState::toJson() const
{
    Json doc = Json::object();
    doc.set("schema", kQueueSchema);
    doc.set("campaign", campaign);
    doc.set("spec_path", specPath);
    doc.set("shard_count", shardCount);
    doc.set("no_timing", noTiming);
    doc.set("max_attempts", maxAttempts);
    Json tasksDoc = Json::array();
    for (const ShardTask &task : tasks) {
        Json taskDoc = Json::object();
        taskDoc.set("index", task.index);
        taskDoc.set("fingerprint", task.fingerprint);
        taskDoc.set("status", taskStatusName(task.status));
        taskDoc.set("attempts", task.attempts);
        taskDoc.set("wall_seconds", task.wallSeconds);
        taskDoc.set("cached", task.cached);
        taskDoc.set("output", task.output);
        taskDoc.set("last_error", task.lastError);
        // Emitted only when set, so queue documents from before the
        // job-granularity cache round-trip byte-identically.
        if (task.jobsCached > 0)
            taskDoc.set("jobs_cached", task.jobsCached);
        if (task.jobsComputed > 0)
            taskDoc.set("jobs_computed", task.jobsComputed);
        tasksDoc.push(std::move(taskDoc));
    }
    doc.set("tasks", std::move(tasksDoc));
    return doc;
}

QueueState
QueueState::load(const std::string &path)
{
    const Json doc = Json::load(path);
    try {
        return fromJson(doc);
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

void
QueueState::save(const std::string &path) const
{
    fsutil::writeFileAtomic(path, toJson().dump());
}

std::size_t
QueueState::countWithStatus(TaskStatus status) const
{
    std::size_t count = 0;
    for (const ShardTask &task : tasks)
        if (task.status == status)
            ++count;
    return count;
}

std::size_t
QueueState::resetRunning()
{
    std::size_t reset = 0;
    for (ShardTask &task : tasks) {
        if (task.status != TaskStatus::Running)
            continue;
        task.status = TaskStatus::Pending;
        task.lastError = "orchestrator stopped mid-attempt";
        ++reset;
    }
    return reset;
}

} // namespace lsqca::service
