/**
 * @file
 * Semantic fuzz: random macro-level circuits (Clifford + T + CCX +
 * temporary-AND pairs) must match their Clifford+T lowerings exactly on
 * the state-vector oracle, for both Toffoli styles and across
 * measurement-randomness seeds. This is the broad net behind the
 * hand-picked lowering tests.
 */

#include <gtest/gtest.h>

#include <vector>

#include "circuit/lowering.h"
#include "circuit/statevector.h"
#include "common/rng.h"

namespace lsqca {
namespace {

constexpr double kEps = 1e-9;

/**
 * Random 6-qubit macro circuit. AND targets are tracked so AndInit
 * always hits a |0> cell and is eventually uncomputed, and the controls
 * of a live AND are frozen until its uncompute — the temporary-AND
 * contract every real generator in src/synth honors (measurement-based
 * uncomputation assumes the controls are untouched in between).
 * Qubits 4-5 serve as the AND scratch pool.
 */
Circuit
randomMacroCircuit(std::uint64_t seed, std::int64_t gates)
{
    Rng rng(seed);
    Circuit c(6);
    // Scratch state: -1 = free, otherwise packed (a<<3)|b of the live
    // AND's controls (those controls are frozen while live).
    std::array<std::int32_t, 2> live{-1, -1};
    auto frozen = [&](QubitId q) {
        for (const std::int32_t pair : live)
            if (pair != -1 && ((pair >> 3) == q || (pair & 7) == q))
                return true;
        return false;
    };
    auto freeQubit = [&]() -> QubitId {
        for (int attempt = 0; attempt < 8; ++attempt) {
            const auto q = static_cast<QubitId>(rng.below(4));
            if (!frozen(q))
                return q;
        }
        return kNoQubit;
    };
    for (std::int64_t i = 0; i < gates; ++i) {
        switch (rng.below(10)) {
          case 0: case 1: case 2: case 3: {
            const QubitId q = freeQubit();
            if (q == kNoQubit)
                break;
            switch (rng.below(4)) {
              case 0: c.h(q); break;
              case 1: c.s(q); break;
              case 2: c.t(q); break;
              default: c.tdg(q); break;
            }
            break;
          }
          case 4: case 5: {
            const QubitId a = freeQubit();
            const QubitId b = freeQubit();
            if (a == kNoQubit || b == kNoQubit || a == b)
                break;
            if (rng.chance(0.5))
                c.cx(a, b);
            else
                c.cz(a, b);
            break;
          }
          case 6: {
            const QubitId a = freeQubit();
            const QubitId b = freeQubit();
            const QubitId t = freeQubit();
            if (a == kNoQubit || b == kNoQubit || t == kNoQubit ||
                a == b || a == t || b == t)
                break;
            c.ccx(a, b, t);
            break;
          }
          case 7: { // open a temporary AND if a scratch cell is free
            for (std::size_t s = 0; s < live.size(); ++s) {
                if (live[s] == -1) {
                    const QubitId a = freeQubit();
                    const QubitId b = freeQubit();
                    if (a == kNoQubit || b == kNoQubit || a == b)
                        break;
                    c.andInit(a, b, static_cast<QubitId>(4 + s));
                    live[s] = (a << 3) | b;
                    break;
                }
            }
            break;
          }
          case 8: { // close a live AND
            for (std::size_t s = 0; s < live.size(); ++s) {
                if (live[s] != -1) {
                    c.andUncompute(live[s] >> 3, live[s] & 7,
                                   static_cast<QubitId>(4 + s));
                    live[s] = -1;
                    break;
                }
            }
            break;
          }
          default: {
            const QubitId q = freeQubit();
            if (q != kNoQubit)
                c.x(q);
            break;
          }
        }
    }
    for (std::size_t s = 0; s < live.size(); ++s)
        if (live[s] != -1)
            c.andUncompute(live[s] >> 3, live[s] & 7,
                           static_cast<QubitId>(4 + s));
    return c;
}

class LoweringFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LoweringFuzz, Textbook7TMatchesMacros)
{
    const Circuit macro = randomMacroCircuit(GetParam(), 60);
    const Circuit lowered =
        lowerToCliffordT(macro, ToffoliStyle::Textbook7T);
    auto ref = runStateVector(macro, {0, 2}, GetParam());
    auto low = runStateVector(lowered, {0, 2}, GetParam() * 31 + 7);
    EXPECT_NEAR(low.state.fidelity(ref.state), 1.0, kEps);
}

TEST_P(LoweringFuzz, TemporaryAnd4TMatchesMacros)
{
    const Circuit macro = randomMacroCircuit(GetParam(), 60);
    const Circuit lowered =
        lowerToCliffordT(macro, ToffoliStyle::TemporaryAnd4T);
    // The 4T style may append one shared ancilla; pad the reference.
    Circuit padded(lowered.numQubits());
    for (const auto &g : macro.gates())
        padded.append(g);
    auto ref = runStateVector(padded, {1, 3}, GetParam());
    auto low = runStateVector(lowered, {1, 3}, GetParam() * 17 + 3);
    EXPECT_NEAR(low.state.fidelity(ref.state), 1.0, kEps);
}

TEST_P(LoweringFuzz, LoweredOutputIsAlwaysCliffordT)
{
    const Circuit macro = randomMacroCircuit(GetParam(), 80);
    for (ToffoliStyle style :
         {ToffoliStyle::Textbook7T, ToffoliStyle::TemporaryAnd4T}) {
        // Bound to a local: a range-for over a temporary's gates()
        // would iterate a destroyed Circuit.
        const Circuit lowered = lowerToCliffordT(macro, style);
        for (const auto &g : lowered.gates())
            ASSERT_TRUE(isCliffordTGate(g.kind)) << gateName(g.kind);
    }
}

TEST_P(LoweringFuzz, MeasurementRandomnessDoesNotLeak)
{
    // The AND-uncompute involves random X-measurements; the corrected
    // state must be seed-independent.
    const Circuit macro = randomMacroCircuit(GetParam(), 50);
    const Circuit lowered = lowerToCliffordT(macro);
    auto a = runStateVector(lowered, {}, 1111);
    auto b = runStateVector(lowered, {}, 2222);
    EXPECT_NEAR(a.state.fidelity(b.state), 1.0, kEps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

} // namespace
} // namespace lsqca
