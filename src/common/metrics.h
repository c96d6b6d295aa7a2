#ifndef LSQCA_COMMON_METRICS_H
#define LSQCA_COMMON_METRICS_H

/**
 * @file
 * A lock-cheap registry of named counters, gauges, and histograms —
 * the in-process half of the campaign observability layer
 * (docs/METRICS.md). The service orchestrator counts spawns, retries
 * by cause, and cache traffic here; the sweep thread
 * pool (when a registry is attached) accounts queue-wait, per-job
 * wall, and per-worker busy time.
 *
 * Cost model: instrument lookup (`counter("name")`) takes a mutex and
 * is meant to run once, at setup; the returned reference is stable
 * for the registry's lifetime, and every update on it is a relaxed
 * atomic — no locks, no allocation — so instruments can sit on warm
 * paths. With no registry attached (the default everywhere), the
 * instrumented code compiles to a null-pointer test and the sweep hot
 * path stays byte-identical (pinned by the micro-kernel gate).
 *
 * Snapshots (`toJson()`) render name-sorted, so two registries that
 * saw the same updates serialize byte-identically regardless of
 * registration order — the determinism the `--clock logical` tests
 * lean on.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.h"

namespace lsqca::metrics {

/** Monotonically increasing integer (events, bytes, cache hits). */
class Counter
{
  public:
    void add(std::int64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/** Last-write-wins level (queue depth, live workers). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Streaming summary of an observed distribution: count, sum, min,
 * max (mean derives). No buckets — the journal keeps the raw events
 * when a full distribution matters; this is the cheap always-on
 * aggregate.
 */
class Histogram
{
  public:
    void observe(double v);

    std::int64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double min() const { return min_.load(std::memory_order_relaxed); }
    double max() const { return max_.load(std::memory_order_relaxed); }
    double mean() const;

  private:
    std::atomic<std::int64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * Named instruments, created on first use. References returned by
 * counter()/gauge()/histogram() stay valid for the registry's
 * lifetime; a name maps to one instrument kind (re-requesting it as
 * another kind throws InternalError).
 */
class Registry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Name-sorted snapshot: counters as integers, gauges as numbers,
     * histograms as {count, sum, mean, min, max} objects.
     */
    Json toJson() const;

  private:
    struct Instrument
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument &slot(const std::string &name);

    mutable std::mutex mutex_;
    std::map<std::string, Instrument> instruments_;
};

} // namespace lsqca::metrics

#endif // LSQCA_COMMON_METRICS_H
