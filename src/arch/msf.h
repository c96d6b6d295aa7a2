#ifndef LSQCA_ARCH_MSF_H
#define LSQCA_ARCH_MSF_H

/**
 * @file
 * Magic-state factory model (Litinski design, Sec. VI-A): each factory
 * emits one distilled state per period into a shared bounded buffer;
 * production stalls while the buffer is full.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace lsqca {

/**
 * Deterministic producer/consumer model of the MSF pool.
 *
 * State k is delivered to the buffer at
 *   d_k = max(d_{k-f} + period, c_{k-B})
 * (f factories, buffer capacity B, c = consumption times), with the
 * first B states available at t = 0 when warm-started. Consumption is
 * in program order, matching the in-order scheduler.
 */
class MagicSource
{
  public:
    /** A granted magic state: wait until @c start, in CR at @c end. */
    struct Grant
    {
        std::int64_t start;
        std::int64_t end;
    };

    MagicSource(std::int32_t factories, std::int32_t buffer_cap,
                std::int32_t period, std::int32_t transfer,
                bool warm_start, bool instant);

    /**
     * Consume the next magic state, requested no earlier than @p req.
     * Monotonically increasing @p req values are required (in-order
     * issue). @return the wait-resolved transfer window.
     *
     * Defined here, like deliveryTime and pushRing: the machine loop
     * calls it once per magic-state request.
     */
    Grant
    acquire(std::int64_t req)
    {
        LSQCA_REQUIRE(req >= 0, "negative request time");
        if (instant_)
            return {req, req};
        const std::int64_t k = consumed_;
        const std::int64_t ready = deliveryTime(k);
        const std::int64_t start = std::max(req, ready);
        stallBeats_ += std::max<std::int64_t>(0, ready - req);

        pushRing(dRing_, static_cast<std::size_t>(factories_), dSlot_,
                 std::max(ready, std::int64_t{0}));
        pushRing(cRing_, static_cast<std::size_t>(bufferCap_), cSlot_,
                 start);

        ++consumed_;
        return {start, start + transfer_};
    }

    /** States consumed so far. */
    std::int64_t consumed() const { return consumed_; }

    /** Beats spent waiting on an empty buffer so far. */
    std::int64_t stallBeats() const { return stallBeats_; }

  private:
    std::int64_t
    deliveryTime(std::int64_t k) const
    {
        if (warm_ && k < bufferCap_)
            return 0; // pre-filled buffer at t = 0
        std::int64_t prev_factory;
        if (k >= factories_) {
            prev_factory = dRing_[dSlot_]; // d_{k-f}
        } else {
            // Factory's first state after a cold start (or after the
            // warm prefill was consumed faster than it could be
            // produced).
            prev_factory = 0;
        }
        std::int64_t ready = prev_factory + period_;
        if (k >= bufferCap_)
            ready = std::max(ready, cRing_[cSlot_]); // c_{k-B}
        return ready;
    }

    /** Store @p value in @p ring's slot @p slot (size @p n), then
     *  advance it. */
    static void
    pushRing(std::vector<std::int64_t> &ring, std::size_t n,
             std::size_t &slot, std::int64_t value)
    {
        if (ring.size() < n)
            ring.push_back(value); // still filling: slot == ring.size()
        else
            ring[slot] = value;
        if (++slot == n)
            slot = 0;
    }

    std::int32_t factories_;
    std::int32_t bufferCap_;
    std::int32_t period_;
    std::int32_t transfer_;
    bool warm_;
    bool instant_;
    std::int64_t consumed_ = 0;
    std::int64_t stallBeats_ = 0;
    /**
     * The recurrence reads d_{k-f} and c_{k-B} only, so each history
     * is a ring: slot k % n holds entry k - n until entry k overwrites
     * it. A ring fills by appending until it holds n entries and then
     * wraps in place, so acquire() stops allocating after the first
     * max(f, B) states, and a huge buffer_cap costs memory only for
     * the states actually consumed.
     */
    std::vector<std::int64_t> dRing_; ///< last `factories_` deliveries
    std::vector<std::int64_t> cRing_; ///< last `bufferCap_` consumptions
    std::size_t dSlot_ = 0;           ///< consumed_ % factories_
    std::size_t cSlot_ = 0;           ///< consumed_ % bufferCap_
};

} // namespace lsqca

#endif // LSQCA_ARCH_MSF_H
