#ifndef LSQCA_SERVICE_JOURNAL_H
#define LSQCA_SERVICE_JOURNAL_H

/**
 * @file
 * The persistent campaign event journal: an append-only
 * `events.jsonl` (schema `lsqca-events-v1`, docs/METRICS.md) written
 * beside `queue.json`. Where the queue holds the campaign's *current*
 * state, the journal holds its *history* — every spawn, exit, retry
 * and cache hit, across every submit/resume leg — so
 * `lsqca report` and `lsqca status` can reconstruct where campaign
 * time and work went without having watched it happen.
 *
 * Crash safety: every record is one `write(2)` of one complete line
 * on an O_APPEND descriptor, so concurrent readers never see a line
 * interleaved and a killed writer can only leave a *torn final
 * line*. On reopen, that torn tail is truncated away and a
 * `truncated` warning event is appended — the journal is always
 * reloadable (jsonl::readLines tolerates a torn tail for readers of
 * a *live* journal the same way).
 *
 * Every line carries:
 *   - `event`: the record kind (see docs/METRICS.md for the schema),
 *   - `seq`: strictly increasing from 1, continuous across resumes,
 *   - `t`: seconds since the campaign was created — or, under the
 *     logical clock, the sequence number itself,
 *   - `wall`: unix-epoch seconds (monotonic clock only).
 *
 * The clock seam: `JournalClock::Monotonic` stamps real timestamps;
 * `JournalClock::Logical` stamps deterministic counters and makes
 * writers suppress wall-time payload fields, so two identical
 * campaign runs produce byte-identical journals (and byte-identical
 * `lsqca report` output) — the substrate for tests and CI.
 */

#include <cstdint>
#include <string>

#include "common/json.h"

namespace lsqca::service {

/** Journal schema identifier (the header line's "schema"). */
inline constexpr const char *kEventsSchema = "lsqca-events-v1";

enum class JournalClock : std::uint8_t
{
    /** Real time: `t` = seconds since campaign creation, plus `wall`. */
    Monotonic,
    /** Deterministic: `t` = `seq`, no wall fields anywhere. */
    Logical,
};

/** "monotonic" / "logical". */
const char *journalClockName(JournalClock clock);

/** Inverse of journalClockName. @throws ConfigError. */
JournalClock journalClockFromName(const std::string &name);

/**
 * Appender for one campaign's `events.jsonl`. Default-constructed
 * journals are disabled (every record() is a no-op) — the null
 * object behind `--no-journal`.
 */
class Journal
{
  public:
    Journal() = default;
    ~Journal();

    Journal(Journal &&other) noexcept;
    Journal &operator=(Journal &&other) noexcept;
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Create @p path (with a `journal` header event) or reopen it for
     * appending: the sequence continues from the last record, a torn
     * final line is truncated away and logged as a `truncated` event.
     * @throws ConfigError when the file cannot be opened or an
     * existing journal is unreadable.
     */
    static Journal open(const std::string &path, JournalClock clock);

    /** `<stateDir>/events.jsonl` — where a campaign's journal lives. */
    static std::string pathFor(const std::string &stateDir);

    bool enabled() const { return fd_ >= 0; }

    /** Writers suppress nondeterministic payload fields under this. */
    bool logical() const { return clock_ == JournalClock::Logical; }

    /**
     * Append one event: `{"event":kind,"seq":n,"t":...,["wall":...]}`
     * followed by @p fields' members in their insertion order, as one
     * atomic line. No-op when disabled.
     */
    void record(const std::string &kind, const Json &fields = Json());

    /** Sequence number of the last record (0 when none yet). */
    std::int64_t seq() const { return seq_; }

    const std::string &path() const { return path_; }

  private:
    void close();

    std::string path_;
    int fd_ = -1;
    JournalClock clock_ = JournalClock::Monotonic;
    std::int64_t seq_ = 0;
    /** Unix-epoch seconds of the campaign's first event. */
    double wall0_ = 0.0;
};

} // namespace lsqca::service

#endif // LSQCA_SERVICE_JOURNAL_H
