#include "isa/program.h"

#include <gtest/gtest.h>

#include "common/error.h"

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

TEST(Program, AppendValidatesMemoryOperands)
{
    Program p(4);
    EXPECT_NO_THROW(p.append(makeLd(3, 0)));
    EXPECT_THROW(p.append(makeLd(4, 0)), ConfigError);
    EXPECT_THROW(p.append(makeLd(-1, 0)), ConfigError);
}

TEST(Program, AppendValidatesRegisterOperands)
{
    Program p(2);
    Instruction inst;
    inst.op = Opcode::HD_C;
    EXPECT_THROW(p.append(inst), ConfigError); // missing c0
    inst.c0 = 0;
    EXPECT_NO_THROW(p.append(inst));

    Instruction zz;
    zz.op = Opcode::MZZ_C;
    zz.c0 = 0;
    zz.c1 = 0; // duplicate register
    zz.v0 = p.newValue();
    EXPECT_THROW(p.append(zz), ConfigError);
    zz.c1 = 1;
    EXPECT_NO_THROW(p.append(zz));
}

TEST(Program, AppendValidatesValues)
{
    Program p(2);
    Instruction mz;
    mz.op = Opcode::MZ_M;
    mz.m0 = 0;
    mz.v0 = 0; // not allocated yet
    EXPECT_THROW(p.append(mz), ConfigError);
    mz.v0 = p.newValue();
    EXPECT_NO_THROW(p.append(mz));
}

TEST(Program, DuplicateMemoryOperandsRejected)
{
    Program p(3);
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 1;
    cx.m1 = 1;
    EXPECT_THROW(p.append(cx), ConfigError);
}

TEST(Program, RegistersAndLookup)
{
    Program p(10);
    p.addRegister("control", 0, 4);
    p.addRegister("system", 4, 6);
    EXPECT_EQ(p.registerOf(0), 0);
    EXPECT_EQ(p.registerOf(5), 1);
    EXPECT_THROW(p.addRegister("bad", 8, 5), ConfigError); // overflows
}

TEST(Program, CountedInstructionsExcludesLoadStore)
{
    Program p(2);
    p.append(makeLd(0, 0));
    Instruction h;
    h.op = Opcode::HD_C;
    h.c0 = 0;
    p.append(h);
    Instruction st;
    st.op = Opcode::ST;
    st.m0 = 0;
    st.c0 = 0;
    p.append(st);
    EXPECT_EQ(p.size(), 3);
    EXPECT_EQ(p.countedInstructions(), 1);
}

TEST(Program, PrefixKeepsTheSymbolTable)
{
    Program p(4);
    p.addRegister("a", 0, 2);
    p.newValue();
    p.newValue();
    for (std::int32_t m = 0; m < 4; ++m)
        p.append(makeLd(m, 0));

    const Program two = p.prefix(2);
    EXPECT_EQ(two.size(), 2);
    EXPECT_EQ(two.instructions()[1].m0, 1);
    EXPECT_EQ(two.numVariables(), 4);
    EXPECT_EQ(two.numValues(), 2);
    ASSERT_EQ(two.registers().size(), 1u);
    EXPECT_EQ(two.registers()[0].name, "a");
    // 0 (like a job without a prefix) and an over-long prefix keep
    // every instruction.
    EXPECT_EQ(p.prefix(0).disassemble(), p.disassemble());
    EXPECT_EQ(p.prefix(9).disassemble(), p.disassemble());
}

TEST(Program, MagicCountCountsPm)
{
    Program p(1);
    Instruction pm;
    pm.op = Opcode::PM;
    pm.c0 = 0;
    p.append(pm);
    p.append(pm);
    EXPECT_EQ(p.magicCount(), 2);
}

TEST(Program, ReferenceCountsOverMemoryOperands)
{
    Program p(3);
    p.append(makeLd(0, 0));
    Instruction cx;
    cx.op = Opcode::CX;
    cx.m0 = 0;
    cx.m1 = 2;
    p.append(cx);
    const auto refs = p.referenceCounts();
    EXPECT_EQ(refs[0], 2);
    EXPECT_EQ(refs[1], 0);
    EXPECT_EQ(refs[2], 1);
}

TEST(Program, DisassemblyFormat)
{
    Program p(2);
    p.addRegister("q", 0, 2);
    p.append(makeLd(1, 0));
    const std::string out = p.disassemble();
    EXPECT_NE(out.find("; lsqca program: 2 variables"), std::string::npos);
    EXPECT_NE(out.find("; register q: m0..m1"), std::string::npos);
    EXPECT_NE(out.find("LD m1, c0"), std::string::npos);
}

TEST(Program, DisassemblyTruncation)
{
    Program p(1);
    for (int i = 0; i < 10; ++i) {
        Instruction h;
        h.op = Opcode::HD_M;
        h.m0 = 0;
        p.append(h);
    }
    const std::string out = p.disassemble(3);
    EXPECT_NE(out.find("... 7 more instructions"), std::string::npos);
}

} // namespace
} // namespace lsqca
