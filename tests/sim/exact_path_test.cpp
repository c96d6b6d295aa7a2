/**
 * @file
 * Seeded differentials on the one simulation path, over real
 * translated programs and random machine configurations:
 *
 *  * a run truncated by maxInstructions equals a run of a program
 *    holding only that prefix, so sizing the machine's timelines from
 *    the prefix maxima (Program::streamIndex()) changes no result;
 *  * a program grown by append() after its stream index was memoized
 *    simulates exactly like the program it now equals;
 *  * the observed instantiation (a StallAttribution attached) returns
 *    the same SimResult as the unobserved one, and its motion and
 *    magic-stall splits sum to the result totals.
 *
 * A mismatch prints the seed so the failure replays exactly.
 */

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "circuit/lowering.h"
#include "common/rng.h"
#include "sim/collectors/stall_attribution.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

using collectors::StallAttribution;

/** Distinct, well-mixed 64-bit seed for differential round @p index. */
std::uint64_t
differentialSeed(int index, std::uint64_t salt)
{
    return (0x9e3779b97f4a7c15ULL *
            (static_cast<std::uint64_t>(index) + 1)) ^
           salt;
}

/** Small real programs shared by every test in this file. */
const Program &
pooledProgram(int which)
{
    // 603 / 48 / 4735 instructions: a mid-size arithmetic stream, a
    // trivial transversal chain, and a long select stream.
    static const Program adder =
        translate(lowerToCliffordT(makeAdder(16)));
    static const Program ghz = translate(lowerToCliffordT(makeGhz(48)));
    static const Program select =
        translate(lowerToCliffordT(makeSelect({.width = 4})));
    switch (which % 3) {
      case 0: return adder;
      case 1: return ghz;
      default: return select;
    }
}

/**
 * A random machine. @p allowHybrid is off where the test compares
 * programs with different reference counts: hybrid placement ranks
 * variables by whole-program references, not by the simulated prefix.
 */
SimOptions
randomOptions(Rng &rng, bool allowHybrid)
{
    SimOptions opts;
    opts.arch.factories = static_cast<std::int32_t>(rng.between(1, 3));
    opts.arch.localityStore = rng.chance(0.75);
    opts.arch.inMemoryOps = rng.chance(0.75);
    opts.arch.warmBuffer = rng.chance(0.5);
    switch (rng.below(3)) {
      case 0:
        opts.arch.sam = SamKind::Point;
        opts.arch.banks = static_cast<std::int32_t>(rng.between(1, 2));
        break;
      case 1:
        opts.arch.sam = SamKind::Line;
        opts.arch.banks = static_cast<std::int32_t>(rng.between(1, 4));
        opts.arch.rowParallelOps = rng.chance(0.5);
        break;
      default:
        opts.arch.sam = SamKind::Conventional;
        break;
    }
    if (allowHybrid && opts.arch.sam != SamKind::Conventional &&
        rng.chance(0.3))
        opts.arch.hybridFraction = 0.3;
    return opts;
}

/** @p prog's first @p n instructions with the same symbol tables. */
Program
prefixCopy(const Program &prog, std::int64_t n)
{
    Program out(prog.numVariables());
    for (const VariableRegister &r : prog.registers())
        out.addRegister(r.name, r.first, r.size);
    while (out.numValues() < prog.numValues())
        out.newValue();
    for (std::int64_t i = 0; i < n; ++i)
        out.append(prog.instructions()[static_cast<std::size_t>(i)]);
    return out;
}

/** Every machine-visible field two runs of one stream must share. */
void
expectSameResult(const SimResult &a, const SimResult &b,
                 std::uint64_t seed)
{
    EXPECT_EQ(a.execBeats, b.execBeats) << "seed " << seed;
    EXPECT_EQ(a.instructionsSimulated, b.instructionsSimulated)
        << "seed " << seed;
    EXPECT_EQ(a.countedInstructions, b.countedInstructions)
        << "seed " << seed;
    EXPECT_EQ(a.cpi, b.cpi) << "seed " << seed; // bit for bit
    EXPECT_EQ(a.magicConsumed, b.magicConsumed) << "seed " << seed;
    EXPECT_EQ(a.magicStallBeats, b.magicStallBeats) << "seed " << seed;
    EXPECT_EQ(a.memoryBeats, b.memoryBeats) << "seed " << seed;
    EXPECT_EQ(a.opcodeCount, b.opcodeCount) << "seed " << seed;
    EXPECT_EQ(a.opcodeBeats, b.opcodeBeats) << "seed " << seed;
    EXPECT_EQ(a.floorplan.density(), b.floorplan.density())
        << "seed " << seed;
}

class ExactPathDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(ExactPathDifferential, TruncatedRunMatchesCopiedPrefix)
{
    const std::uint64_t seed = differentialSeed(GetParam(), 0x7a11c0deULL);
    Rng rng(seed);
    const Program &prog = pooledProgram(static_cast<int>(rng.below(3)));
    const std::int64_t n = rng.between(1, prog.size());
    SimOptions truncated = randomOptions(rng, false);
    truncated.maxInstructions = n;
    const SimResult a = simulate(prog, truncated);

    SimOptions whole = truncated;
    whole.maxInstructions = 0;
    const SimResult b = simulate(prefixCopy(prog, n), whole);
    EXPECT_EQ(a.instructionsSimulated, n) << "seed " << seed;
    expectSameResult(a, b, seed);
}

TEST_P(ExactPathDifferential, GrownProgramMatchesItsOriginal)
{
    const std::uint64_t seed = differentialSeed(GetParam(), 0x96e4a11dULL);
    Rng rng(seed);
    const Program &prog = pooledProgram(static_cast<int>(rng.below(3)));
    // Memoize the index of a short prefix, then grow the program
    // back to full length: append() must drop the stale memo.
    Program grown = prefixCopy(prog, rng.between(0, prog.size() - 1));
    ASSERT_LT(grown.size(), prog.size());
    SimOptions opts = randomOptions(rng, true);
    simulate(grown, opts);
    for (std::int64_t i = grown.size(); i < prog.size(); ++i)
        grown.append(prog.instructions()[static_cast<std::size_t>(i)]);
    ASSERT_EQ(grown.size(), prog.size());

    if (rng.chance(0.5))
        opts.maxInstructions = rng.between(1, prog.size());
    expectSameResult(simulate(prog, opts), simulate(grown, opts), seed);
}

TEST_P(ExactPathDifferential, ObservedRunMatchesUnobserved)
{
    const std::uint64_t seed = differentialSeed(GetParam(), 0x0b5e7fedULL);
    Rng rng(seed);
    const Program &prog = pooledProgram(static_cast<int>(rng.below(3)));
    SimOptions opts = randomOptions(rng, true);
    if (rng.chance(0.5))
        opts.maxInstructions = rng.between(1, prog.size());
    const SimResult plain = simulate(prog, opts);

    StallAttribution stalls;
    opts.observers = {&stalls};
    const SimResult observed = simulate(prog, opts);
    expectSameResult(plain, observed, seed);

    std::int64_t count = 0;
    std::int64_t magic_stall = 0;
    for (const OpcodeSplit &row : stalls.rows()) {
        count += row.count;
        magic_stall += row.split.magicStall;
    }
    EXPECT_EQ(count, plain.instructionsSimulated) << "seed " << seed;
    EXPECT_EQ(stalls.totals().motionBeats(), plain.memoryBeats)
        << "seed " << seed;
    EXPECT_EQ(magic_stall, plain.magicStallBeats) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactPathDifferential,
                         ::testing::Range(0, 8));

} // namespace
} // namespace lsqca
