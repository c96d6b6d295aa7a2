#include "service/orchestrator.h"

#include <chrono>
#include <thread>

#include "common/error.h"
#include "common/shutdown.h"

namespace lsqca::service {

Orchestrator::Orchestrator(OrchestratorOptions options)
    : options_(std::move(options))
{
    LSQCA_REQUIRE(!options_.stateDir.empty(),
                  "the orchestrator needs a state dir");
    LSQCA_REQUIRE(!options_.workerExe.empty(),
                  "the orchestrator needs a worker executable");
    LSQCA_REQUIRE(options_.workers >= 1 && options_.workers <= 1024,
                  "--workers must lie in [1, 1024]");
    LSQCA_REQUIRE(options_.shards >= 0 && options_.shards <= (1 << 20),
                  "--shards must lie in [0, 2^20]");
    LSQCA_REQUIRE(options_.stragglerFactor >= 1.0,
                  "--straggler-factor must be >= 1");
}

std::string
Orchestrator::queuePath(const std::string &stateDir)
{
    return queuePathFor(stateDir);
}

std::string
Orchestrator::shardFileName(const std::string &campaign,
                            std::int32_t index, std::int32_t count)
{
    return service::shardFileName(campaign, index, count);
}

QueueState
Orchestrator::inspect(const std::string &stateDir)
{
    return QueueState::load(queuePath(stateDir));
}

SchedulerOptions
Orchestrator::schedulerOptions() const
{
    SchedulerOptions sched;
    sched.stateDir = options_.stateDir;
    sched.cacheDir = !options_.useCache
                         ? std::string()
                         : (options_.cacheDir.empty()
                                ? options_.stateDir + "/cache"
                                : options_.cacheDir);
    sched.outDir = options_.outDir;
    sched.threadsPerWorker = options_.threadsPerWorker;
    sched.workers = options_.workers;
    sched.timeoutSeconds = options_.timeoutSeconds;
    sched.stragglerFactor = options_.stragglerFactor;
    sched.minStragglerSeconds = options_.minStragglerSeconds;
    sched.seedCheck = options_.seedCheck;
    sched.workerExe = options_.workerExe;
    sched.journal = options_.journal;
    sched.clock = options_.clock;
    sched.extraWorkerArgs = options_.extraWorkerArgs;
    sched.firstAttemptExtraArgs = options_.firstAttemptExtraArgs;
    return sched;
}

CampaignReport
Orchestrator::submit(const std::string &specPath)
{
    // The lock covers the whole drive: admission races (two submits
    // creating queue.json) and drive races (a resume on a live
    // campaign) both fail fast at acquire instead of corrupting
    // state. Released by ~Orchestrator / the next acquire.
    lock_ = StateLock::acquire(options_.stateDir);
    return drive(admitCampaign(specPath, options_.stateDir,
                               options_.shards, options_.workers,
                               options_.noTiming, options_.maxAttempts));
}

CampaignReport
Orchestrator::resume()
{
    lock_ = StateLock::acquire(options_.stateDir);
    return drive(reopenCampaign(options_.stateDir, options_.maxAttempts));
}

CampaignReport
Orchestrator::drive(CampaignAdmission admission)
{
    Scheduler scheduler(schedulerOptions(), std::move(admission));
    scheduler.cachePass();

    const auto interruptedBySignal = [&]() -> int {
        return options_.handleShutdown ? shutdown::pending() : 0;
    };

    for (;;) {
        // Dispatch pending shards into free worker slots.
        while (scheduler.runningCount() <
               static_cast<std::size_t>(options_.workers)) {
            if (scheduler.dispatchOne() < 0)
                break;
            if (options_.stopAfterDispatches > 0 &&
                scheduler.progress().spawned >=
                    options_.stopAfterDispatches) {
                scheduler.killWorkers();
                return scheduler.finish(true);
            }
        }

        if (const int signal = interruptedBySignal()) {
            // Orderly Ctrl-C/SIGTERM: no orphaned workers, the queue
            // on disk keeps the killed attempts marked running (a
            // resume leg re-queues them), and the journal records
            // why this leg ended instead of leaning on torn-tail
            // repair.
            scheduler.killWorkers();
            scheduler.recordShutdown(signal);
            CampaignReport report = scheduler.finish(true);
            report.shutdownSignal = signal;
            return report;
        }

        if (scheduler.runningCount() == 0)
            break;

        scheduler.pollWorkers();
        if (scheduler.runningCount() > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(options_.pollSeconds));
    }

    return scheduler.finish(false);
}

} // namespace lsqca::service
