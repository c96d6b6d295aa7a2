#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a layer's public function, recorded from the
 * benchmark's own code: name, start, end, the span that caused it, the
 * track (thread) it ran on, and the job it belongs to, so every span of
 * one sweep job shares an id. Spans are kept in memory while the
 * workload runs and written out once at the end as a Chrome/Perfetto
 * trace in the same format `lsqca report --chrome-trace` emits.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    /** Seconds since the recorder's epoch. */
    double start = 0.0;
    double end = 0.0;
    std::int64_t id = 0;
    /** Causing span (0 = none). */
    std::int64_t parent = 0;
    /** Job index shared by every span of one job (-1 = not a job span). */
    std::int64_t job = -1;
    /** Track: 0 = driver thread, w = sweep worker w, 100 + w = worker process w. */
    std::int32_t tid = 0;

    double seconds() const { return end - start; }
};

class SpanRecorder
{
  public:
    SpanRecorder();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Seconds since the recorder's epoch (steady clock). */
    double now() const;

    /** The epoch as unix seconds, to place spans read from journals. */
    double unixEpoch() const { return unixEpoch_; }

    std::int64_t nextId() { return nextId_.fetch_add(1) + 1; }

    /** Append a finished span (thread-safe). */
    void add(Span span);

    /** Every span recorded so far, in completion order. */
    std::vector<Span> spans() const;

    /** Sum of durations of the spans named @p name. */
    double total(const std::string &name) const;

    /** True when a span could not be stored (allocation failure). */
    bool lostSpans() const { return lost_.load(); }

    /** Write the spans as a Chrome/Perfetto JSON trace. */
    void writeChromeTrace(const std::string &path,
                          const std::string &process) const;

    /** RAII span: starts on construction, recorded on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, std::string name,
              std::int64_t parent = 0, std::int64_t job = -1,
              std::int32_t tid = 0);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::int64_t id() const { return span_.id; }

      private:
        SpanRecorder &recorder_;
        Span span_;
    };

  private:
    std::chrono::steady_clock::time_point epoch_;
    double unixEpoch_ = 0.0;
    std::atomic<std::int64_t> nextId_{0};
    std::atomic<bool> lost_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
