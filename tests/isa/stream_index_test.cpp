/**
 * @file
 * Program::streamIndex() tests. The machine sizes its CR-slot and
 * value timelines from these prefix maxima, so an entry that is too
 * small is an out-of-bounds write in the simulator hot loop and one
 * that is too large only wastes memory. Pinned three ways: a
 * hand-worked table, the memo contract (shared until append()), and a
 * seeded differential against an independent scan of each prefix.
 */

#include "isa/program.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/lowering.h"
#include "common/rng.h"
#include "synth/benchmarks.h"
#include "translate/translate.h"

namespace lsqca {
namespace {

Instruction
makeLd(std::int32_t m, std::int32_t c)
{
    Instruction inst;
    inst.op = Opcode::LD;
    inst.m0 = m;
    inst.c0 = c;
    return inst;
}

TEST(StreamIndex, EmptyProgramHasOnlyTheSentinel)
{
    const Program p(3);
    const auto index = p.streamIndex();
    ASSERT_EQ(index->maxSlotPrefix.size(), 1u);
    ASSERT_EQ(index->maxValPrefix.size(), 1u);
    EXPECT_EQ(index->maxSlotPrefix[0], -1);
    EXPECT_EQ(index->maxValPrefix[0], -1);
}

TEST(StreamIndex, HandWorkedPrefixMaxima)
{
    Program p(4);
    p.append(makeLd(0, 2)); // c2
    Instruction zz;
    zz.op = Opcode::MZZ_C;
    zz.c0 = 0;
    zz.c1 = 5;
    zz.v0 = p.newValue();
    p.append(zz); // c0, c5 -> v0
    p.append(makeLd(1, 1)); // c1: slot maximum stays 5
    Instruction mz;
    mz.op = Opcode::MZ_M;
    mz.m0 = 2;
    p.newValue();
    mz.v0 = p.newValue();
    p.append(mz); // m2 -> v2, no slot

    const auto index = p.streamIndex();
    const std::vector<std::int32_t> slots = {-1, 2, 5, 5, 5};
    const std::vector<std::int32_t> values = {-1, -1, 0, 0, 2};
    EXPECT_EQ(index->maxSlotPrefix, slots);
    EXPECT_EQ(index->maxValPrefix, values);
}

TEST(StreamIndex, MemoizedUntilAppendInvalidates)
{
    Program p(2);
    p.append(makeLd(0, 0));
    const auto first = p.streamIndex();
    EXPECT_EQ(p.streamIndex(), first); // same memo, not a rescan
    // A copy shares the memo: it indexes the same instructions.
    const Program copy = p;
    EXPECT_EQ(copy.streamIndex(), first);

    p.append(makeLd(1, 3));
    const auto grown = p.streamIndex();
    EXPECT_NE(grown, first);
    ASSERT_EQ(grown->maxSlotPrefix.size(), 3u);
    EXPECT_EQ(grown->maxSlotPrefix[2], 3);
    // The earlier snapshot, still held by the copy, is untouched.
    ASSERT_EQ(first->maxSlotPrefix.size(), 2u);
    EXPECT_EQ(copy.streamIndex()->maxSlotPrefix.size(), 2u);
}

// ---- differential: memoized maxima vs an independent scan -----------------
//
// Each seed picks a real translated benchmark or a random Clifford+T
// circuit and checks the index at random prefix lengths (plus both
// ends) against a direct max over the prefix. A mismatch prints the
// seed and prefix length so the failure replays exactly.

const Program &
pooledProgram(int which)
{
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

Program
randomProgram(Rng &rng)
{
    const auto qubits = static_cast<std::int32_t>(rng.between(2, 24));
    Circuit c(qubits);
    const std::int64_t gates = rng.between(1, 400);
    for (std::int64_t i = 0; i < gates; ++i) {
        const auto q0 = static_cast<QubitId>(rng.below(qubits));
        auto q1 = static_cast<QubitId>(rng.below(qubits));
        if (q1 == q0)
            q1 = (q1 + 1) % qubits;
        switch (rng.below(5)) {
          case 0: c.h(q0); break;
          case 1: c.s(q0); break;
          case 2: c.t(q0); break;
          case 3: c.cx(q0, q1); break;
          default: c.cz(q0, q1); break;
        }
    }
    return translate(c);
}

void
expectPrefixMatchesScan(const Program &prog, const StreamIndex &index,
                        std::size_t prefix, std::uint64_t seed)
{
    std::int32_t slot = -1;
    std::int32_t value = -1;
    const auto &code = prog.instructions();
    for (std::size_t i = 0; i < prefix; ++i) {
        slot = std::max({slot, code[i].c0, code[i].c1});
        value = std::max(value, code[i].v0);
    }
    EXPECT_EQ(index.maxSlotPrefix[prefix], slot)
        << "seed " << seed << " prefix " << prefix;
    EXPECT_EQ(index.maxValPrefix[prefix], value)
        << "seed " << seed << " prefix " << prefix;
}

class StreamIndexDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(StreamIndexDifferential, PrefixMaximaMatchAnIndependentScan)
{
    const std::uint64_t seed =
        0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(GetParam()) + 1);
    Rng rng(seed);
    const Program prog = rng.chance(0.5)
                             ? pooledProgram(static_cast<int>(rng.below(3)))
                             : randomProgram(rng);
    const auto index = prog.streamIndex();
    const auto n = static_cast<std::size_t>(prog.size());
    ASSERT_EQ(index->maxSlotPrefix.size(), n + 1);
    ASSERT_EQ(index->maxValPrefix.size(), n + 1);

    expectPrefixMatchesScan(prog, *index, 0, seed);
    expectPrefixMatchesScan(prog, *index, n, seed);
    for (int probe = 0; probe < 32; ++probe) {
        const auto prefix = static_cast<std::size_t>(
            rng.between(0, static_cast<std::int64_t>(n)));
        expectPrefixMatchesScan(prog, *index, prefix, seed);
    }
    // Maxima never decrease along the stream.
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_LE(index->maxSlotPrefix[i], index->maxSlotPrefix[i + 1]);
        ASSERT_LE(index->maxValPrefix[i], index->maxValPrefix[i + 1]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamIndexDifferential,
                         ::testing::Range(0, 8));

} // namespace
} // namespace lsqca
