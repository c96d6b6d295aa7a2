#include "isa/program.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace lsqca {

Program::Program(std::int32_t num_variables)
    : numVariables_(num_variables)
{
    LSQCA_REQUIRE(num_variables >= 0, "negative variable count");
}

void
Program::addRegister(const std::string &name, std::int32_t first,
                     std::int32_t size)
{
    LSQCA_REQUIRE(first >= 0 && size > 0 &&
                      first + size <= numVariables_,
                  "variable register out of range: " + name);
    regs_.push_back({name, first, size});
}

std::int32_t
Program::registerOf(std::int32_t m) const
{
    for (std::size_t i = 0; i < regs_.size(); ++i)
        if (m >= regs_[i].first && m < regs_[i].first + regs_[i].size)
            return static_cast<std::int32_t>(i);
    return -1;
}

void
Program::append(const Instruction &inst)
{
    const OpcodeInfo &info = opcodeInfo(inst.op);
    auto checkMem = [&](std::int32_t m) {
        LSQCA_REQUIRE(m >= 0 && m < numVariables_,
                      std::string(info.mnemonic) +
                          ": memory operand out of range");
    };
    if (info.numMem >= 1)
        checkMem(inst.m0);
    if (info.numMem >= 2) {
        checkMem(inst.m1);
        LSQCA_REQUIRE(inst.m0 != inst.m1,
                      std::string(info.mnemonic) +
                          ": memory operands must differ");
    }
    if (info.numReg >= 1)
        LSQCA_REQUIRE(inst.c0 >= 0, std::string(info.mnemonic) +
                                        ": missing register operand");
    if (info.numReg >= 2)
        LSQCA_REQUIRE(inst.c1 >= 0 && inst.c1 != inst.c0,
                      std::string(info.mnemonic) +
                          ": invalid second register operand");
    if (info.numVal >= 1)
        LSQCA_REQUIRE(inst.v0 >= 0 && inst.v0 < numValues_,
                      std::string(info.mnemonic) +
                          ": value operand not allocated");
    code_.push_back(inst);
    refCounts_ = nullptr;
    streamIndex_ = nullptr;
}

Program
Program::prefix(std::int64_t n) const
{
    Program copy(numVariables_);
    copy.numValues_ = numValues_;
    copy.regs_ = regs_;
    const std::int64_t kept = n > 0 ? std::min(n, size()) : size();
    copy.code_.assign(code_.begin(), code_.begin() + kept);
    return copy;
}

std::int64_t
Program::countedInstructions() const
{
    std::int64_t count = 0;
    for (const auto &inst : code_)
        if (inst.op != Opcode::LD && inst.op != Opcode::ST)
            ++count;
    return count;
}

std::int64_t
Program::magicCount() const
{
    std::int64_t count = 0;
    for (const auto &inst : code_)
        if (inst.op == Opcode::PM)
            ++count;
    return count;
}

std::vector<std::int64_t>
Program::referenceCounts() const
{
    if (auto cached = std::atomic_load_explicit(
            &refCounts_, std::memory_order_acquire))
        return *cached;
    std::vector<std::int64_t> counts(
        static_cast<std::size_t>(numVariables_), 0);
    for (const auto &inst : code_) {
        const OpcodeInfo &info = opcodeInfo(inst.op);
        if (info.numMem >= 1)
            ++counts[static_cast<std::size_t>(inst.m0)];
        if (info.numMem >= 2)
            ++counts[static_cast<std::size_t>(inst.m1)];
    }
    auto memo = std::make_shared<const std::vector<std::int64_t>>(
        std::move(counts));
    std::atomic_store_explicit(&refCounts_, memo,
                               std::memory_order_release);
    return *memo;
}

std::shared_ptr<const StreamIndex>
Program::streamIndex() const
{
    if (auto cached = std::atomic_load_explicit(
            &streamIndex_, std::memory_order_acquire))
        return cached;
    auto index = std::make_shared<StreamIndex>();
    const std::size_t n = code_.size();
    index->maxSlotPrefix.resize(n + 1, -1);
    index->maxValPrefix.resize(n + 1, -1);
    for (std::size_t i = 0; i < n; ++i) {
        const Instruction &inst = code_[i];
        index->maxSlotPrefix[i + 1] = std::max(
            {index->maxSlotPrefix[i], inst.c0, inst.c1});
        index->maxValPrefix[i + 1] =
            std::max(index->maxValPrefix[i], inst.v0);
    }
    std::shared_ptr<const StreamIndex> memo = std::move(index);
    std::atomic_store_explicit(&streamIndex_, memo,
                               std::memory_order_release);
    return memo;
}

std::string
Program::disassemble(std::size_t max_lines) const
{
    std::ostringstream oss;
    oss << "; lsqca program: " << numVariables_ << " variables, "
        << code_.size() << " instructions, " << magicCount()
        << " magic states\n";
    for (const auto &r : regs_)
        oss << "; register " << r.name << ": m" << r.first << "..m"
            << (r.first + r.size - 1) << "\n";
    std::size_t line = 0;
    for (const auto &inst : code_) {
        if (max_lines != 0 && line >= max_lines) {
            oss << "; ... " << (code_.size() - line)
                << " more instructions\n";
            break;
        }
        oss << inst.str() << "\n";
        ++line;
    }
    return oss.str();
}

} // namespace lsqca
