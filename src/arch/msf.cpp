#include "arch/msf.h"

#include <algorithm>

namespace lsqca {

MagicSource::MagicSource(std::int32_t factories, std::int32_t buffer_cap,
                         std::int32_t period, std::int32_t transfer,
                         bool warm_start, bool instant)
    : factories_(factories), bufferCap_(buffer_cap), period_(period),
      transfer_(transfer), warm_(warm_start), instant_(instant)
{
    LSQCA_REQUIRE(factories >= 1, "MagicSource needs >= 1 factory");
    LSQCA_REQUIRE(buffer_cap >= 1, "MagicSource needs >= 1 buffer slot");
    LSQCA_REQUIRE(period >= 1, "MagicSource period must be positive");
    LSQCA_REQUIRE(transfer >= 0, "MagicSource transfer must be >= 0");
}

namespace {

/** Store @p value in @p ring's slot @p slot (size @p n), then advance it. */
void
pushRing(std::vector<std::int64_t> &ring, std::size_t n, std::size_t &slot,
         std::int64_t value)
{
    if (ring.size() < n)
        ring.push_back(value); // still filling: slot == ring.size()
    else
        ring[slot] = value;
    if (++slot == n)
        slot = 0;
}

} // namespace

std::int64_t
MagicSource::deliveryTime(std::int64_t k) const
{
    if (warm_ && k < bufferCap_)
        return 0; // pre-filled buffer at t = 0
    std::int64_t prev_factory;
    if (k >= factories_) {
        prev_factory = dRing_[dSlot_]; // d_{k-f}
    } else {
        // Factory's first state after a cold start (or after the warm
        // prefill was consumed faster than it could be produced).
        prev_factory = 0;
    }
    std::int64_t ready = prev_factory + period_;
    if (k >= bufferCap_)
        ready = std::max(ready, cRing_[cSlot_]); // c_{k-B}
    return ready;
}

MagicSource::Grant
MagicSource::acquire(std::int64_t req)
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
    pushRing(cRing_, static_cast<std::size_t>(bufferCap_), cSlot_, start);

    ++consumed_;
    return {start, start + transfer_};
}

} // namespace lsqca
