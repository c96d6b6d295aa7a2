#include "spans.h"

#include <set>
#include <utility>

#include "common/json.h"

namespace perfbench {

SpanRecorder::SpanRecorder()
    : epoch_(std::chrono::steady_clock::now()),
      unixEpoch_(std::chrono::duration<double>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count())
{
}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

void
SpanRecorder::add(Span span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanRecorder::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

double
SpanRecorder::total(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            sum += span.seconds();
    return sum;
}

void
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &process) const
{
    // Same layout as service::writeChromeTrace: ts/dur in microseconds,
    // "X" complete spans, "M" metadata naming the process and tracks.
    const std::vector<Span> all = spans();
    const auto us = [](double t) { return t * 1e6; };
    lsqca::Json events = lsqca::Json::array();
    const auto meta = [&](const char *kind, std::int32_t tid,
                          const std::string &name) {
        lsqca::Json event = lsqca::Json::object();
        event.set("name", kind);
        event.set("ph", "M");
        event.set("pid", 1);
        event.set("tid", tid);
        event.set("args", lsqca::Json::object().set("name", name));
        events.push(std::move(event));
    };
    meta("process_name", 0, process);
    std::set<std::int32_t> tids;
    for (const Span &span : all)
        tids.insert(span.tid);
    for (const std::int32_t tid : tids)
        meta("thread_name", tid,
             tid == 0    ? std::string("driver")
             : tid < 100 ? "sweep worker " + std::to_string(tid)
                         : "worker process " + std::to_string(tid - 100));
    for (const Span &span : all) {
        lsqca::Json event = lsqca::Json::object();
        event.set("name", span.name);
        event.set("ph", "X");
        event.set("pid", 1);
        event.set("tid", span.tid);
        event.set("ts", us(span.start));
        event.set("dur", us(span.seconds()));
        lsqca::Json args = lsqca::Json::object();
        args.set("id", span.id);
        args.set("parent", span.parent);
        if (span.job >= 0)
            args.set("job", span.job);
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    lsqca::Json doc = lsqca::Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    doc.write(path, 0);
}

SpanRecorder::Scope::Scope(SpanRecorder &recorder, std::string name,
                           std::int64_t parent, std::int64_t job,
                           std::int32_t tid)
    : recorder_(recorder)
{
    span_.name = std::move(name);
    span_.id = recorder.nextId();
    span_.parent = parent;
    span_.job = job;
    span_.tid = tid;
    span_.start = recorder.now();
}

SpanRecorder::Scope::~Scope()
{
    span_.end = recorder_.now();
    try {
        recorder_.add(std::move(span_));
    } catch (...) {
        // A destructor must not throw; the run reports itself incorrect.
        recorder_.lost_.store(true);
    }
}

} // namespace perfbench
