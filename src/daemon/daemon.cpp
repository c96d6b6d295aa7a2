#include "daemon/daemon.h"

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>

#include <poll.h>
#include <unistd.h>

#include "common/error.h"
#include "common/fs.h"
#include "common/shutdown.h"

namespace lsqca::daemon {

namespace fs = std::filesystem;
using service::QueueState;
using service::Scheduler;
using service::SchedulerOptions;
using service::StateLock;
using service::TaskStatus;

std::string
Daemon::defaultSocketPath(const std::string &root)
{
    return root + "/daemon.sock";
}

std::string
Daemon::campaignDir(const std::string &root, const std::string &name)
{
    return root + "/campaigns/" + name;
}

Daemon::Daemon(DaemonOptions options) : options_(std::move(options))
{
    LSQCA_REQUIRE(!options_.root.empty(), "the daemon needs a root dir");
    LSQCA_REQUIRE(!options_.workerExe.empty(),
                  "the daemon needs a worker executable");
    LSQCA_REQUIRE(options_.workers >= 1 && options_.workers <= 1024,
                  "--workers must lie in [1, 1024]");
    socketPath_ = options_.socketPath.empty()
                      ? defaultSocketPath(options_.root)
                      : options_.socketPath;
    cacheDir_ = options_.cacheDir.empty() ? options_.root + "/cache"
                                          : options_.cacheDir;
}

Daemon::~Daemon()
{
    for (const std::unique_ptr<Peer> &peer : peers_)
        net::closeFd(peer->fd);
    peers_.clear();
    if (listenFd_ >= 0) {
        net::closeFd(listenFd_);
        listenFd_ = -1;
        ::unlink(socketPath_.c_str());
    }
}

SchedulerOptions
Daemon::schedulerOptions(
    const std::vector<std::string> &extraWorkerArgs) const
{
    SchedulerOptions sched;
    sched.cacheDir = cacheDir_;
    sched.threadsPerWorker = options_.threadsPerWorker;
    // Journal leg metadata: the pool every tenant shares, not a
    // per-campaign allotment.
    sched.workers = options_.workers;
    sched.timeoutSeconds = options_.timeoutSeconds;
    sched.stragglerFactor = options_.stragglerFactor;
    sched.minStragglerSeconds = options_.minStragglerSeconds;
    sched.workerExe = options_.workerExe;
    sched.clock = options_.clock;
    sched.extraWorkerArgs = extraWorkerArgs;
    return sched;
}

Tenant *
Daemon::findTenant(const std::string &name)
{
    for (const std::unique_ptr<Tenant> &tenant : tenants_)
        if (tenant->name == name)
            return tenant.get();
    return nullptr;
}

std::size_t
Daemon::runningTotal() const
{
    std::size_t total = 0;
    for (const std::unique_ptr<Tenant> &tenant : tenants_)
        total += tenant->scheduler->runningCount();
    return total;
}

void
Daemon::dispatchSlots()
{
    // Weighted round-robin: each free slot goes to the next campaign
    // in admission order with pending work; a visited campaign keeps
    // the cursor for `weight` dispatches before it moves on, so
    // weight 1 everywhere is strict alternation — the fairness the
    // daemon journal's dispatch sequence records.
    if (tenants_.empty())
        return;
    std::size_t running = runningTotal();
    while (running < static_cast<std::size_t>(options_.workers)) {
        Tenant *pick = nullptr;
        std::size_t pickIndex = 0;
        for (std::size_t scan = 0; scan < tenants_.size(); ++scan) {
            const std::size_t i = (cursor_ + scan) % tenants_.size();
            if (tenants_[i]->scheduler->pendingCount() > 0) {
                pick = tenants_[i].get();
                pickIndex = i;
                break;
            }
        }
        if (pick == nullptr)
            return;
        if (pickIndex != cursor_ || pick->credits <= 0)
            pick->credits = pick->weight;
        cursor_ = pickIndex;
        const std::int32_t shard = pick->scheduler->dispatchOne();
        if (shard < 0)
            return;
        ++running;
        Json fields = Json::object();
        fields.set("campaign", pick->name);
        fields.set("shard", shard);
        journal_.record("dispatch", fields);
        if (--pick->credits <= 0)
            cursor_ = (pickIndex + 1) % tenants_.size();
    }
}

void
Daemon::finishDrained()
{
    for (std::size_t i = 0; i < tenants_.size();) {
        Tenant &tenant = *tenants_[i];
        if (!tenant.scheduler->drained()) {
            ++i;
            continue;
        }
        const service::CampaignReport report =
            tenant.scheduler->finish(false);
        Json fields = Json::object();
        fields.set("campaign", tenant.name);
        fields.set("complete", report.complete);
        fields.set("spawned", report.spawned);
        fields.set("cache_hits", report.cacheHits);
        journal_.record("campaign_done", fields);
        // Destroying the tenant releases its state-dir lock; its
        // journal file stays for watchers still catching up.
        tenants_.erase(tenants_.begin() +
                       static_cast<std::ptrdiff_t>(i));
        if (cursor_ >= tenants_.size())
            cursor_ = 0;
    }
}

void
Daemon::pumpWatchers()
{
    for (const std::unique_ptr<Peer> &peer : peers_) {
        if (!peer->watching || peer->closed)
            continue;
        std::error_code ec;
        const std::uintmax_t size =
            fs::file_size(peer->watchPath, ec);
        if (!ec && size > peer->watchOffset) {
            std::ifstream in(peer->watchPath, std::ios::binary);
            if (!in)
                continue;
            in.seekg(static_cast<std::streamoff>(peer->watchOffset));
            std::string chunk(
                static_cast<std::size_t>(size - peer->watchOffset),
                '\0');
            in.read(chunk.data(),
                    static_cast<std::streamsize>(chunk.size()));
            chunk.resize(static_cast<std::size_t>(in.gcount()));
            // Forward only whole lines: a torn tail (the journal's
            // single-write discipline makes one possible only at a
            // crash) stays buffered in the file until complete.
            const std::size_t lastNewline = chunk.rfind('\n');
            if (lastNewline != std::string::npos) {
                std::size_t from = 0;
                bool dropped = false;
                while (from <= lastNewline) {
                    const std::size_t to = chunk.find('\n', from);
                    if (!net::sendLine(
                            peer->fd,
                            chunk.substr(from, to - from))) {
                        // Peer vanished mid-watch; drop it quietly.
                        peer->closed = true;
                        dropped = true;
                        break;
                    }
                    from = to + 1;
                }
                if (!dropped)
                    peer->watchOffset += lastNewline + 1;
            }
        }
        // The stream ends when the campaign is inactive and fully
        // forwarded (the last line is its `done` event).
        if (!peer->closed && findTenant(peer->watchCampaign) == nullptr) {
            std::error_code sizeEc;
            const std::uintmax_t finalSize =
                fs::file_size(peer->watchPath, sizeEc);
            if (sizeEc || peer->watchOffset >= finalSize)
                peer->closed = true;
        }
    }
}

Json
Daemon::opPing()
{
    Json response = okResponse();
    response.set("pong", true);
    response.set("campaigns",
                 static_cast<std::int64_t>(tenants_.size()));
    response.set("workers", options_.workers);
    response.set("draining", draining_);
    return response;
}

Json
Daemon::opSubmit(const Json &body)
{
    LSQCA_REQUIRE(!draining_,
                  "daemon is draining; not admitting new campaigns");
    const Json *specField = body.find("spec");
    LSQCA_REQUIRE(specField != nullptr && specField->isString(),
                  "submit needs a string \"spec\" path");
    const std::string specPath = specField->asString();
    LSQCA_REQUIRE(!specPath.empty() && specPath.front() == '/',
                  "submit needs an absolute spec path (client and "
                  "daemon working directories differ)");

    std::int32_t shards = 0;
    if (const Json *field = body.find("shards"))
        shards = static_cast<std::int32_t>(field->asInt());
    bool noTiming = false;
    if (const Json *field = body.find("no_timing"))
        noTiming = field->asBool();
    std::int32_t weight = 1;
    if (const Json *field = body.find("weight"))
        weight = static_cast<std::int32_t>(field->asInt());
    LSQCA_REQUIRE(weight >= 1 && weight <= 64,
                  "weight must lie in [1, 64]");
    std::int32_t maxAttempts = options_.maxAttempts;
    if (const Json *field = body.find("max_attempts"))
        maxAttempts = static_cast<std::int32_t>(field->asInt());
    std::vector<std::string> extraWorkerArgs;
    if (const Json *field = body.find("extra_worker_args"))
        for (const Json &arg : field->items())
            extraWorkerArgs.push_back(arg.asString());

    // The campaign keys on the spec's name — the same state dir a
    // repeat submit of the same spec resumes.
    const std::string name = api::SweepSpec::load(specPath).name;
    LSQCA_REQUIRE(findTenant(name) == nullptr,
                  "campaign \"" + name +
                      "\" is already active in this daemon");

    auto tenant = std::make_unique<Tenant>();
    tenant->name = name;
    tenant->stateDir = campaignDir(options_.root, name);
    tenant->weight = weight;
    // Fails fast when a one-shot orchestrator (or another daemon)
    // owns the dir — the same flock the one-shot path takes.
    tenant->lock = StateLock::acquire(tenant->stateDir);

    service::CampaignAdmission admission =
        fsutil::exists(service::queuePathFor(tenant->stateDir))
            ? service::reopenCampaign(tenant->stateDir, maxAttempts)
            : service::admitCampaign(specPath, tenant->stateDir, shards,
                                     options_.workers, noTiming,
                                     maxAttempts);
    const char *leg = admission.leg;

    SchedulerOptions sched = schedulerOptions(extraWorkerArgs);
    sched.stateDir = tenant->stateDir;
    tenant->scheduler = std::make_unique<Scheduler>(
        std::move(sched), std::move(admission));
    tenant->scheduler->cachePass();

    Json fields = Json::object();
    fields.set("campaign", name);
    fields.set("leg", leg);
    fields.set("shards", tenant->scheduler->state().shardCount);
    fields.set("weight", weight);
    journal_.record("admit", fields);

    Json response = okResponse();
    response.set("campaign", name);
    response.set("state", tenant->stateDir);
    response.set("leg", leg);
    response.set("shards", tenant->scheduler->state().shardCount);
    tenants_.push_back(std::move(tenant));
    return response;
}

Json
Daemon::opStatus(const Json &body)
{
    const Json *campaignField = body.find("campaign");
    if (campaignField == nullptr)
        return opList();
    const std::string name = campaignField->asString();
    const Tenant *tenant = findTenant(name);
    Json response = okResponse();
    response.set("campaign", name);
    response.set("active", tenant != nullptr);
    QueueState state;
    if (tenant != nullptr) {
        state = tenant->scheduler->state();
        response.set("running",
                     static_cast<std::int64_t>(
                         tenant->scheduler->runningCount()));
    } else {
        const std::string queueFile = service::queuePathFor(
            campaignDir(options_.root, name));
        LSQCA_REQUIRE(fsutil::exists(queueFile),
                      "no campaign \"" + name + "\" under " +
                          options_.root);
        state = QueueState::load(queueFile);
    }
    response.set("queue", state.toJson());
    return response;
}

Json
Daemon::opList()
{
    Json campaigns = Json::array();
    const std::string campaignsRoot = options_.root + "/campaigns";
    std::vector<std::string> names;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(campaignsRoot, ec))
        if (entry.is_directory() &&
            fsutil::exists(
                service::queuePathFor(entry.path().string())))
            names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    for (const std::string &name : names) {
        const QueueState state = QueueState::load(
            service::queuePathFor(campaignDir(options_.root, name)));
        Json row = Json::object();
        row.set("campaign", name);
        row.set("active", findTenant(name) != nullptr);
        row.set("shards", state.shardCount);
        row.set("done", static_cast<std::int64_t>(
                            state.countWithStatus(TaskStatus::Done)));
        row.set("running",
                static_cast<std::int64_t>(
                    state.countWithStatus(TaskStatus::Running)));
        row.set("pending",
                static_cast<std::int64_t>(
                    state.countWithStatus(TaskStatus::Pending)));
        row.set("failed",
                static_cast<std::int64_t>(
                    state.countWithStatus(TaskStatus::Failed)));
        campaigns.push(std::move(row));
    }
    Json response = okResponse();
    response.set("campaigns", std::move(campaigns));
    response.set("draining", draining_);
    return response;
}

Json
Daemon::opWatch(Peer &peer, const Json &body)
{
    const Json *campaignField = body.find("campaign");
    LSQCA_REQUIRE(campaignField != nullptr && campaignField->isString(),
                  "watch needs a string \"campaign\"");
    const std::string name = campaignField->asString();
    const std::string path = service::Journal::pathFor(
        campaignDir(options_.root, name));
    LSQCA_REQUIRE(findTenant(name) != nullptr || fsutil::exists(path),
                  "no campaign \"" + name + "\" under " +
                      options_.root);
    peer.watching = true;
    peer.watchCampaign = name;
    peer.watchPath = path;
    peer.watchOffset = 0;
    Json response = okResponse();
    response.set("campaign", name);
    response.set("events", service::kEventsSchema);
    return response;
}

Json
Daemon::opCancel(const Json &body)
{
    const Json *campaignField = body.find("campaign");
    LSQCA_REQUIRE(campaignField != nullptr && campaignField->isString(),
                  "cancel needs a string \"campaign\"");
    const std::string name = campaignField->asString();
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        Tenant &tenant = *tenants_[i];
        if (tenant.name != name)
            continue;
        // Cancellation is the signal-free shutdown: workers killed,
        // queue left resumable, journal closed with shutdown + done
        // (signal 0 marks "by request", docs/DAEMON.md).
        tenant.scheduler->killWorkers();
        tenant.scheduler->recordShutdown(0);
        const service::CampaignReport report =
            tenant.scheduler->finish(true);
        Json fields = Json::object();
        fields.set("campaign", name);
        fields.set("cancelled", true);
        fields.set("spawned", report.spawned);
        journal_.record("campaign_done", fields);
        tenants_.erase(tenants_.begin() +
                       static_cast<std::ptrdiff_t>(i));
        if (cursor_ >= tenants_.size())
            cursor_ = 0;
        Json response = okResponse();
        response.set("campaign", name);
        response.set("cancelled", true);
        return response;
    }
    throw ConfigError("campaign \"" + name +
                      "\" is not active in this daemon");
}

Json
Daemon::opDrain()
{
    draining_ = true;
    Json response = okResponse();
    response.set("draining", true);
    response.set("active", static_cast<std::int64_t>(tenants_.size()));
    return response;
}

void
Daemon::handleLine(Peer &peer, const std::string &line)
{
    Json response;
    try {
        const Request request = parseRequest(line);
        if (request.op == "ping")
            response = opPing();
        else if (request.op == "submit")
            response = opSubmit(request.body);
        else if (request.op == "status")
            response = opStatus(request.body);
        else if (request.op == "list")
            response = opList();
        else if (request.op == "watch")
            response = opWatch(peer, request.body);
        else if (request.op == "cancel")
            response = opCancel(request.body);
        else
            response = opDrain();
    } catch (const std::exception &error) {
        response = errorResponse(error.what());
    }
    if (!net::sendLine(peer.fd, response.dump(0)))
        peer.closed = true;
}

void
Daemon::pollSockets(double timeoutSeconds)
{
    std::vector<pollfd> fds;
    fds.reserve(peers_.size() + 1);
    pollfd listenPoll = {};
    listenPoll.fd = listenFd_;
    listenPoll.events = POLLIN;
    fds.push_back(listenPoll);
    for (const std::unique_ptr<Peer> &peer : peers_) {
        pollfd entry = {};
        entry.fd = peer->fd;
        entry.events = POLLIN;
        fds.push_back(entry);
    }
    const int timeoutMs =
        static_cast<int>(timeoutSeconds * 1000.0 + 0.5);
    const int ready = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()),
                             timeoutMs);
    if (ready <= 0)
        return;

    if ((fds[0].revents & POLLIN) != 0) {
        for (;;) {
            const int fd = net::acceptClient(listenFd_);
            if (fd < 0)
                break;
            net::setNonBlocking(fd);
            peers_.push_back(std::make_unique<Peer>(fd));
        }
    }

    for (std::size_t p = 0; p < peers_.size() && p + 1 < fds.size();
         ++p) {
        Peer &peer = *peers_[p];
        if ((fds[p + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;
        for (;;) {
            std::string line;
            const net::LineReader::Status status =
                peer.reader.poll(line);
            if (status == net::LineReader::Status::Line) {
                if (peer.watching)
                    // Watchers are write-only from our side; drain
                    // and ignore anything else they send.
                    continue;
                handleLine(peer, line);
                continue;
            }
            if (status == net::LineReader::Status::Overflow) {
                // The line boundary is lost; the connection cannot
                // recover.
                net::sendLine(peer.fd,
                              errorResponse(
                                  "frame exceeds " +
                                  std::to_string(net::kMaxLineBytes) +
                                  " bytes")
                                  .dump(0));
                peer.closed = true;
                break;
            }
            if (status == net::LineReader::Status::Eof)
                peer.closed = true;
            break;
        }
    }
}

void
Daemon::shutdownAll(int signal)
{
    for (const std::unique_ptr<Tenant> &tenant : tenants_) {
        tenant->scheduler->killWorkers();
        tenant->scheduler->recordShutdown(signal);
        tenant->scheduler->finish(true);
    }
    tenants_.clear();
    Json fields = Json::object();
    fields.set("signal", signal);
    journal_.record("shutdown", fields);
}

int
Daemon::run()
{
    if (options_.handleSignals)
        shutdown::install();
    fsutil::makeDirs(options_.root);
    fsutil::makeDirs(cacheDir_);
    fsutil::makeDirs(options_.root + "/campaigns");
    // One daemon per root: the lock also makes unlinking a stale
    // socket file safe in listenUnix.
    rootLock_ = StateLock::acquire(options_.root);
    journal_ = service::Journal::open(
        options_.root + "/daemon.events.jsonl", options_.clock);
    {
        Json fields = Json::object();
        fields.set("workers", options_.workers);
        fields.set("socket", "daemon.sock");
        journal_.record("daemon_start", fields);
    }
    listenFd_ = net::listenUnix(socketPath_);

    int exitCode = 0;
    for (;;) {
        // A real OS signal exits 128+N like the one-shot path; a
        // programmatic requestStop() (tests, embedding) exits 0.
        int signal = options_.handleSignals ? shutdown::pending() : 0;
        if (signal != 0)
            exitCode = 128 + signal;
        else if (stopRequested_.load())
            signal = SIGTERM;
        if (signal != 0) {
            shutdownAll(signal);
            break;
        }

        for (const std::unique_ptr<Tenant> &tenant : tenants_)
            tenant->scheduler->pollWorkers();
        finishDrained();
        dispatchSlots();
        pumpWatchers();

        // Dropped peers leave the set only after their last writes.
        peers_.erase(std::remove_if(
                         peers_.begin(), peers_.end(),
                         [](const std::unique_ptr<Peer> &peer) {
                             if (!peer->closed)
                                 return false;
                             net::closeFd(peer->fd);
                             return true;
                         }),
                     peers_.end());

        if (draining_ && tenants_.empty()) {
            Json fields = Json::object();
            fields.set("signal", 0);
            journal_.record("shutdown", fields);
            break;
        }

        const bool busy = runningTotal() > 0;
        pollSockets(busy ? options_.pollSeconds : 0.05);
    }

    net::closeFd(listenFd_);
    listenFd_ = -1;
    ::unlink(socketPath_.c_str());
    for (const std::unique_ptr<Peer> &peer : peers_)
        net::closeFd(peer->fd);
    peers_.clear();
    return exitCode;
}

} // namespace lsqca::daemon
