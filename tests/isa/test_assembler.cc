/** @file Unit and round-trip tests for the textual assembler. */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "cpu/functional/functional_cpu.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "workloads/workload.hh"

#include "support/random_program.hh"

namespace
{

using namespace ff;
using namespace ff::isa;

Program
mustAssemble(const std::string &src)
{
    Program p;
    const std::string err = assemble(src, "test", &p);
    EXPECT_EQ(err, "") << src;
    return p;
}

TEST(Assembler, AluForms)
{
    const Program p = mustAssemble("add r1 = r2, r3\n"
                                   "sub r4 = r5, -17\n"
                                   "xor r6 = r7, 0x1F\n"
                                   "halt\n");
    EXPECT_EQ(p.inst(0).op, Opcode::kAdd);
    EXPECT_EQ(p.inst(0).dst, intReg(1));
    EXPECT_EQ(p.inst(0).src2, intReg(3));
    EXPECT_FALSE(p.inst(0).src2IsImm);
    EXPECT_TRUE(p.inst(1).src2IsImm);
    EXPECT_EQ(p.inst(1).imm, -17);
    EXPECT_EQ(p.inst(2).imm, 0x1F);
}

TEST(Assembler, MoviAndMoves)
{
    const Program p = mustAssemble("movi r1 = -9\n"
                                   "mov r2 = r1\n"
                                   "itof f1 = r2\n"
                                   "ftoi r3 = f1\n"
                                   "halt\n");
    EXPECT_EQ(p.inst(0).op, Opcode::kMovi);
    EXPECT_EQ(p.inst(0).imm, -9);
    EXPECT_EQ(p.inst(1).op, Opcode::kMov);
    EXPECT_EQ(p.inst(2).op, Opcode::kItof);
    EXPECT_EQ(p.inst(2).dst, fpReg(1));
    EXPECT_EQ(p.inst(3).op, Opcode::kFtoi);
}

TEST(Assembler, Compares)
{
    const Program p = mustAssemble("cmp.ltu p1, p2 = r3, 10\n"
                                   "fcmp.ge p3, p4 = f1, f2\n"
                                   "halt\n");
    EXPECT_EQ(p.inst(0).op, Opcode::kCmp);
    EXPECT_EQ(p.inst(0).cond, CmpCond::kLtu);
    EXPECT_EQ(p.inst(0).dst, predReg(1));
    EXPECT_EQ(p.inst(0).dst2, predReg(2));
    EXPECT_TRUE(p.inst(0).src2IsImm);
    EXPECT_EQ(p.inst(1).op, Opcode::kFcmp);
    EXPECT_EQ(p.inst(1).cond, CmpCond::kGe);
}

TEST(Assembler, MemoryForms)
{
    const Program p = mustAssemble("ld8 r1 = [r2]\n"
                                   "ld4 r3 = [r4+16]\n"
                                   "st8 [r5-8] = r6\n"
                                   "halt\n");
    EXPECT_EQ(p.inst(0).imm, 0);
    EXPECT_EQ(p.inst(1).op, Opcode::kLd4);
    EXPECT_EQ(p.inst(1).imm, 16);
    EXPECT_EQ(p.inst(2).op, Opcode::kSt8);
    EXPECT_EQ(p.inst(2).imm, -8);
    EXPECT_EQ(p.inst(2).src2, intReg(6));
}

TEST(Assembler, PredicatesStopsAndLabels)
{
    const Program p = mustAssemble("movi r1 = 3  ;;\n"
                                   "loop:\n"
                                   "add r1 = r1, -1  ;;\n"
                                   "cmp.gt p1, p2 = r1, 0\n"
                                   "movi r9 = 7  ;;\n"
                                   "(p1) br loop\n"
                                   "halt\n");
    EXPECT_TRUE(p.inst(0).stop);
    EXPECT_TRUE(p.inst(1).stop);
    EXPECT_FALSE(p.inst(2).stop);
    const Instruction &br = p.inst(4);
    ASSERT_TRUE(br.isBranch());
    EXPECT_EQ(br.qpred, predReg(1));
    EXPECT_EQ(br.imm, 1); // the label binds past the stop bit
    EXPECT_TRUE(br.stop);
    EXPECT_EQ(p.validate(), "");
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program p = mustAssemble("# a comment\n"
                                   "\n"
                                   "movi r1 = 1 // trailing\n"
                                   "halt  ;; # done\n");
    EXPECT_EQ(p.size(), 2u);
}

TEST(Assembler, PokeDirectives)
{
    const Program p = mustAssemble(".poke64 0x1000 0xDEADBEEF\n"
                                   ".poke32 0x2000 7\n"
                                   ".pokedouble 0x3000 1.5\n"
                                   "halt\n");
    EXPECT_EQ(p.dataImage().readByte(0x1000), 0xEF);
    EXPECT_EQ(p.dataImage().readByte(0x2000), 0x07);
    EXPECT_NE(p.dataImage().readByte(0x3006), 0x00); // 1.5's high bytes
}

TEST(Assembler, BranchByIndex)
{
    const Program p = mustAssemble("movi r1 = 1  ;;\n"
                                   "br @0\n"
                                   "halt\n");
    EXPECT_EQ(p.inst(1).imm, 0);
}

TEST(Assembler, ErrorMessagesCarryLineNumbers)
{
    Program p;
    EXPECT_EQ(assemble("frobnicate r1 = r2, r3\n", "e", &p),
              "line 1: unknown mnemonic 'frobnicate'");
    EXPECT_NE(assemble("movi r1 =\nhalt\n", "e", &p).find("line 1"),
              std::string::npos);
    EXPECT_NE(assemble("add r1 = r2, r3 junk\nhalt\n", "e", &p)
                  .find("trailing junk"),
              std::string::npos);
    EXPECT_NE(assemble("br nowhere\nhalt\n", "e", &p)
                  .find("undefined label"),
              std::string::npos);
    EXPECT_NE(assemble("x:\nx:\nhalt\n", "e", &p)
                  .find("duplicate label"),
              std::string::npos);
    EXPECT_EQ(assemble("", "e", &p), "empty program");
    EXPECT_NE(assemble("cmp.zz p1, p2 = r1, r2\nhalt\n", "e", &p)
                  .find("condition"),
              std::string::npos);
}

/** True if @p err is an error that names line @p line. */
bool
errorOnLine(const std::string &err, int line)
{
    return err.rfind("line " + std::to_string(line) + ": ", 0) == 0;
}

TEST(Assembler, RegisterIndexBounds)
{
    Program p;
    EXPECT_NE(assemble("movi r64 = 1\nhalt\n", "e", &p), "");
    // Indices that would wrap a 32-bit accumulator back into range.
    for (const char *src : {"movi r4294967297 = 7\nhalt\n",
                            "movi r4294967296 = 7\nhalt\n",
                            "(p4294967297) movi r1 = 7\nhalt\n"}) {
        EXPECT_TRUE(errorOnLine(assemble(src, "e", &p), 1)) << src;
    }
    EXPECT_EQ(mustAssemble("movi r063 = 1\nhalt\n").inst(0).dst,
              intReg(63));
}

TEST(Assembler, IntegersMustFit64Bits)
{
    Program p;
    for (const char *src : {"st8 [r1+99999999999999999999] = r2\nhalt\n",
                            "movi r1 = 0x1ffffffffffffffff\nhalt\n",
                            "movi r1 = -9223372036854775809\nhalt\n",
                            "movi r1 = -0xffffffffffffffff\nhalt\n",
                            "movi r1 = 09\nhalt\n"}) {
        EXPECT_TRUE(errorOnLine(assemble(src, "e", &p), 1)) << src;
    }
    // Every value that fits 64 bits is still taken, modulo 2^64.
    const Program q = mustAssemble("movi r1 = 0xffffffffffffffff\n"
                                   "movi r2 = -0x8000000000000000\n"
                                   "movi r3 = -9223372036854775808\n"
                                   "movi r4 = 18446744073709551615\n"
                                   "movi r5 = -0x1\n"
                                   "movi r6 = 010\n"
                                   "halt\n");
    EXPECT_EQ(q.inst(0).imm, -1);
    EXPECT_EQ(q.inst(1).imm, INT64_MIN);
    EXPECT_EQ(q.inst(2).imm, INT64_MIN);
    EXPECT_EQ(q.inst(3).imm, -1);
    EXPECT_EQ(q.inst(4).imm, -1);
    EXPECT_EQ(q.inst(5).imm, 8);
}

TEST(AssemblerDeathTest, AssembleOrDieOnBadInput)
{
    EXPECT_EXIT(assembleOrDie("bogus\n"), ::testing::ExitedWithCode(1),
                "assembly of");
}

/** Field-level equality of two instruction streams. */
void
expectSameInstructions(const Program &a, const Program &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (InstIdx i = 0; i < a.size(); ++i) {
        const Instruction &x = a.inst(i);
        const Instruction &y = b.inst(i);
        EXPECT_EQ(x.op, y.op) << "inst " << i;
        EXPECT_EQ(x.cond, y.cond) << "inst " << i;
        EXPECT_EQ(x.qpred, y.qpred) << "inst " << i;
        EXPECT_EQ(x.dst, y.dst) << "inst " << i;
        EXPECT_EQ(x.dst2, y.dst2) << "inst " << i;
        EXPECT_EQ(x.src1, y.src1) << "inst " << i;
        EXPECT_EQ(x.src2, y.src2) << "inst " << i;
        EXPECT_EQ(x.imm, y.imm) << "inst " << i;
        EXPECT_EQ(x.src2IsImm, y.src2IsImm) << "inst " << i;
        EXPECT_EQ(x.stop, y.stop) << "inst " << i;
    }
}

class AssemblerRoundTrip
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AssemblerRoundTrip, WorkloadSurvivesTextRoundTrip)
{
    const workloads::Workload w =
        workloads::buildWorkload(GetParam(), 3);
    const std::string text = toAssembly(w.program);

    Program back;
    const std::string err = assemble(text, w.name, &back);
    ASSERT_EQ(err, "");
    expectSameInstructions(w.program, back);

    // And identical behaviour, data image included.
    cpu::FunctionalCpu ref(w.program);
    cpu::FunctionalCpu got(back);
    auto rr = ref.run();
    auto rg = got.run();
    EXPECT_TRUE(rr.halted);
    EXPECT_TRUE(rg.halted);
    EXPECT_EQ(ref.regs().fingerprint(), got.regs().fingerprint());
    EXPECT_EQ(ref.mem().fingerprint(), got.mem().fingerprint());
}

TEST(AssemblerRoundTrip, RandomProgramsSurviveTextRoundTrip)
{
    for (std::uint64_t seed = 500; seed < 512; ++seed) {
        const Program p = ff::testsupport::randomProgram(seed);
        Program back;
        const std::string err =
            assemble(toAssembly(p), "fuzz", &back);
        ASSERT_EQ(err, "") << "seed " << seed;
        expectSameInstructions(p, back);
    }
}

/** The text of the bundled example program @p name. */
std::string
exampleSource(const char *name)
{
    std::ifstream in(std::string(FF_SOURCE_DIR) + "/examples/asm/" +
                     name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Assembler text is a decoder of untrusted bytes. Every single-byte
 * mutant of the bundled examples must either fail with an error or
 * assemble to a program that toAssembly() reproduces: the same
 * disassembly and group leaders at every slot, and the same data.
 */
TEST(Assembler, SingleByteMutantsFailOrRoundTrip)
{
    std::size_t assembled = 0;
    for (const char *name : {"dotprod.s", "histogram.s"}) {
        const std::string src = exampleSource(name);
        ASSERT_FALSE(src.empty()) << name;
        for (std::size_t i = 0; i < src.size(); ++i) {
            for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
                std::string mutant = src;
                mutant[i] = static_cast<char>(
                    static_cast<unsigned char>(mutant[i]) ^ mask);
                Program p;
                if (!assemble(mutant, name, &p).empty())
                    continue;
                ++assembled;
                Program back;
                ASSERT_EQ(assemble(toAssembly(p), name, &back), "")
                    << name << " byte " << i << " ^ " << mask;
                ASSERT_EQ(back.size(), p.size());
                for (InstIdx k = 0; k < p.size(); ++k) {
                    ASSERT_EQ(disasm(back.inst(k)), disasm(p.inst(k)))
                        << name << " byte " << i << " ^ " << mask;
                    ASSERT_EQ(back.isGroupLeader(k), p.isGroupLeader(k))
                        << name << " byte " << i << " ^ " << mask;
                }
                ASSERT_EQ(back.dataImage().fingerprint(),
                          p.dataImage().fingerprint())
                    << name << " byte " << i << " ^ " << mask;
            }
        }
    }
    EXPECT_GT(assembled, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, AssemblerRoundTrip,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (c == '.')
                c = '_';
        }
        return n;
    });

} // namespace
