#include "arch/msf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "fuzz_seeds.h"

namespace lsqca {
namespace {

TEST(MagicSource, WarmStartPrefillsBuffer)
{
    MagicSource msf(1, 2, 15, 1, /*warm=*/true, /*instant=*/false);
    // Two states ready at t = 0.
    EXPECT_EQ(msf.acquire(0).start, 0);
    EXPECT_EQ(msf.acquire(0).start, 0);
    // Third state produced from t = 0: ready at 15.
    EXPECT_EQ(msf.acquire(0).start, 15);
    EXPECT_EQ(msf.consumed(), 3);
}

TEST(MagicSource, ColdStartWaitsOnePeriod)
{
    MagicSource msf(1, 2, 15, 1, /*warm=*/false, /*instant=*/false);
    EXPECT_EQ(msf.acquire(0).start, 15);
    EXPECT_EQ(msf.acquire(0).start, 30);
}

TEST(MagicSource, SteadyStateRateIsPeriodOverFactories)
{
    MagicSource msf(1, 2, 15, 1, true, false);
    std::int64_t last = 0;
    for (int i = 0; i < 50; ++i)
        last = msf.acquire(0).start;
    // 2 prefilled + 48 produced: the 50th consumption ~ 48 * 15.
    EXPECT_EQ(last, 48 * 15);
}

TEST(MagicSource, MultipleFactoriesScaleThroughput)
{
    MagicSource msf(4, 8, 15, 1, true, false);
    std::int64_t last = 0;
    for (int i = 0; i < 48; ++i)
        last = msf.acquire(0).start;
    // 8 prefilled + 40 produced by 4 factories: last ready ~ 10 * 15.
    EXPECT_EQ(last, 10 * 15);
}

TEST(MagicSource, SlowConsumerNeverWaits)
{
    MagicSource msf(1, 2, 15, 1, true, false);
    for (int i = 0; i < 20; ++i) {
        const auto grant = msf.acquire(i * 100);
        EXPECT_EQ(grant.start, i * 100);
    }
    EXPECT_EQ(msf.stallBeats(), 0);
}

TEST(MagicSource, BufferCapLimitsBurst)
{
    // After a long idle period, `cap` states are buffered plus one more
    // held inside the stalled factory (it completed long ago and
    // transfers the instant a slot frees); the next one needs a fresh
    // production run.
    MagicSource msf(1, 3, 10, 0, true, false);
    const std::int64_t t = 1000;
    EXPECT_EQ(msf.acquire(t).start, t);
    EXPECT_EQ(msf.acquire(t).start, t);
    EXPECT_EQ(msf.acquire(t).start, t);
    EXPECT_EQ(msf.acquire(t).start, t);      // factory-held state
    EXPECT_EQ(msf.acquire(t).start, t + 10); // freshly produced
}

TEST(MagicSource, StallBeatsAccumulate)
{
    MagicSource msf(1, 1, 10, 0, false, false);
    msf.acquire(0); // ready at 10 -> 10 beats stalled
    EXPECT_EQ(msf.stallBeats(), 10);
    msf.acquire(50); // ready well before 50 -> no stall
    EXPECT_EQ(msf.stallBeats(), 10);
}

TEST(MagicSource, TransferLatencyAppliesAfterGrant)
{
    MagicSource msf(1, 2, 15, 3, true, false);
    const auto grant = msf.acquire(7);
    EXPECT_EQ(grant.start, 7);
    EXPECT_EQ(grant.end, 10);
}

TEST(MagicSource, InstantModeNeverWaits)
{
    MagicSource msf(1, 1, 15, 1, false, /*instant=*/true);
    for (int i = 0; i < 100; ++i) {
        const auto grant = msf.acquire(i);
        EXPECT_EQ(grant.start, i);
        EXPECT_EQ(grant.end, i);
    }
    EXPECT_EQ(msf.stallBeats(), 0);
}

TEST(MagicSource, ConstructionValidation)
{
    EXPECT_THROW(MagicSource(0, 1, 15, 1, true, false), ConfigError);
    EXPECT_THROW(MagicSource(1, 0, 15, 1, true, false), ConfigError);
    EXPECT_THROW(MagicSource(1, 1, 0, 1, true, false), ConfigError);
    EXPECT_THROW(MagicSource(1, 1, 15, -1, true, false), ConfigError);
}

TEST(MagicSource, MonotoneRequestsGiveMonotoneGrants)
{
    MagicSource msf(2, 4, 15, 1, true, false);
    std::int64_t prev = -1;
    for (int i = 0; i < 40; ++i) {
        const auto grant = msf.acquire(i * 3);
        EXPECT_GE(grant.start, prev);
        prev = grant.start;
    }
}

// ---- ring histories vs the full recurrence ---------------------------------
//
// MagicSource keeps only the last f deliveries and the last B
// consumptions, in rings. The oracle below keeps every d_k and c_k and
// evaluates d_k = max(d_{k-f} + period, c_{k-B}) by direct indexing,
// so any slot or wrap error in the rings shows up as a differing grant.

/** Full-history MagicSource: a deliberately naive copy of the model. */
class ReferenceMagicSource
{
  public:
    ReferenceMagicSource(std::int32_t factories, std::int32_t buffer_cap,
                         std::int32_t period, std::int32_t transfer,
                         bool warm_start, bool instant)
        : f_(factories), b_(buffer_cap), period_(period),
          transfer_(transfer), warm_(warm_start), instant_(instant)
    {
    }

    MagicSource::Grant
    acquire(std::int64_t req)
    {
        if (instant_)
            return {req, req};
        const auto k = static_cast<std::int64_t>(c_.size());
        std::int64_t ready;
        if (warm_ && k < b_) {
            ready = 0;
        } else {
            ready = (k >= f_ ? d_[static_cast<std::size_t>(k - f_)] : 0) +
                    period_;
            if (k >= b_)
                ready = std::max(ready,
                                 c_[static_cast<std::size_t>(k - b_)]);
        }
        const std::int64_t start = std::max(req, ready);
        stall_ += std::max<std::int64_t>(0, ready - req);
        d_.push_back(std::max<std::int64_t>(ready, 0));
        c_.push_back(start);
        return {start, start + transfer_};
    }

    std::int64_t consumed() const
    {
        return static_cast<std::int64_t>(c_.size());
    }
    std::int64_t stallBeats() const { return stall_; }

  private:
    std::int64_t f_;
    std::int64_t b_;
    std::int64_t period_;
    std::int64_t transfer_;
    bool warm_;
    bool instant_;
    std::int64_t stall_ = 0;
    std::vector<std::int64_t> d_;
    std::vector<std::int64_t> c_;
};

struct MsfParams
{
    std::int32_t factories;
    std::int32_t bufferCap;
    std::int32_t period;
    std::int32_t transfer;
    bool warm;
    bool instant;
};

/**
 * Drive both models with @p requests (non-decreasing) and assert that
 * every grant and both counters agree after each acquire.
 */
void
expectSameAsReference(const MsfParams &p,
                      const std::vector<std::int64_t> &requests)
{
    MagicSource msf(p.factories, p.bufferCap, p.period, p.transfer, p.warm,
                    p.instant);
    ReferenceMagicSource ref(p.factories, p.bufferCap, p.period,
                             p.transfer, p.warm, p.instant);
    for (std::size_t k = 0; k < requests.size(); ++k) {
        SCOPED_TRACE(testing::Message()
                     << "f=" << p.factories << " B=" << p.bufferCap
                     << " period=" << p.period << " warm=" << p.warm
                     << " instant=" << p.instant << " k=" << k);
        const auto got = msf.acquire(requests[k]);
        const auto want = ref.acquire(requests[k]);
        ASSERT_EQ(got.start, want.start);
        ASSERT_EQ(got.end, want.end);
        ASSERT_EQ(msf.stallBeats(), ref.stallBeats());
        ASSERT_EQ(msf.consumed(), ref.consumed());
    }
}

TEST(MagicSource, RingsMatchFullHistoryBeforeAndAcrossTheWrap)
{
    // Every (f, B) shape, warm and cold, through k < f, k < B and two
    // full turns of the larger ring. Requests all at t = 0 keep the
    // buffer drained (the factory term binds); bursts of four with idle
    // gaps let it refill, so the consumption term binds too.
    for (std::int32_t f = 1; f <= 8; ++f)
        for (std::int32_t b = 1; b <= 16; ++b)
            for (const bool warm : {true, false}) {
                const auto n =
                    static_cast<std::size_t>(2 * std::max(f, b) + 3);
                std::vector<std::int64_t> drained(n, 0);
                std::vector<std::int64_t> bursts(n);
                for (std::size_t k = 0; k < n; ++k)
                    bursts[k] = static_cast<std::int64_t>(k / 4) * 25;
                expectSameAsReference({f, b, 7, 1, warm, false}, drained);
                expectSameAsReference({f, b, 7, 1, warm, false}, bursts);
            }
}

class MagicSourceDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(MagicSourceDifferential, RingsMatchFullHistory)
{
    Rng rng(differentialSeed(GetParam()) ^ 0x3a61c5ULL);
    for (int round = 0; round < 16; ++round) {
        const MsfParams p{
            static_cast<std::int32_t>(rng.between(1, 8)),
            static_cast<std::int32_t>(rng.between(1, 16)),
            static_cast<std::int32_t>(rng.between(1, 20)),
            static_cast<std::int32_t>(rng.between(0, 3)),
            rng.chance(0.5),
            rng.chance(0.125),
        };
        // Non-decreasing requests mixing bursts (no gap: the buffer
        // drains and the factories bind), steady issue, and long idles
        // (the buffer refills and the c_{k-B} term binds).
        std::vector<std::int64_t> requests;
        std::int64_t t = rng.between(0, 5);
        const auto n = rng.between(1, 300);
        for (std::int64_t i = 0; i < n; ++i) {
            requests.push_back(t);
            const auto mode = rng.below(8);
            if (mode >= 3)
                t += mode == 7 ? rng.between(50, 400) : rng.between(0, 6);
        }
        expectSameAsReference(p, requests);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicSourceDifferential,
                         ::testing::Range(0, fuzzSeedCount()));

} // namespace
} // namespace lsqca
