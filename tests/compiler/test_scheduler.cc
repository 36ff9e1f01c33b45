/** @file Unit tests for the issue-group-forming list scheduler. */

#include <gtest/gtest.h>

#include "compiler/scheduler.hh"
#include "cpu/functional/functional_cpu.hh"
#include "isa/builder.hh"

namespace
{

using namespace ff;
using namespace ff::isa;
using namespace ff::compiler;

TEST(BlockLeaders, EntryBranchTargetsAndFallthroughs)
{
    ProgramBuilder b("blocks");
    b.movi(intReg(1), 0);      // 0
    b.label("loop");           // 1 is a target
    b.addi(intReg(1), intReg(1), 1);
    b.cmpi(CmpCond::kLt, predReg(1), predReg(2), intReg(1), 3);
    b.br("loop");              // 3; fallthrough leader at 4
    b.pred(predReg(1));
    b.halt();                  // 4
    Program p = b.finalize();

    const std::vector<InstIdx> leaders = findBlockLeaders(p);
    EXPECT_EQ(leaders, (std::vector<InstIdx>{0, 1, 4}));
}

TEST(Scheduler, PacksIndependentInstructions)
{
    ProgramBuilder b("pack");
    for (unsigned i = 1; i <= 4; ++i)
        b.movi(intReg(i), i);
    b.halt();
    Program scheduled = schedule(b.finalize());
    // Four independent movis must land in the first group (the halt
    // joins it too, sep-0).
    EXPECT_GE(scheduled.groupEnd(0), 4u);
}

TEST(Scheduler, SeparatesDependentInstructions)
{
    ProgramBuilder b("dep");
    b.movi(intReg(1), 1);
    b.addi(intReg(2), intReg(1), 1);
    b.addi(intReg(3), intReg(2), 1);
    b.halt();
    Program s = schedule(b.finalize());
    // The chain cannot share groups: each add is in a later group.
    InstIdx movi_pos = 0, add1_pos = 0, add2_pos = 0;
    for (InstIdx i = 0; i < s.size(); ++i) {
        if (s.inst(i).op == Opcode::kMovi && s.inst(i).dst == intReg(1))
            movi_pos = i;
        if (s.inst(i).dst == intReg(2))
            add1_pos = i;
        if (s.inst(i).dst == intReg(3))
            add2_pos = i;
    }
    EXPECT_LT(s.groupStart(movi_pos), s.groupStart(add1_pos));
    EXPECT_LT(s.groupStart(add1_pos), s.groupStart(add2_pos));
}

TEST(Scheduler, RespectsResourceWidths)
{
    ProgramBuilder b("width");
    for (unsigned i = 1; i <= 12; ++i)
        b.movi(intReg(i), i);
    b.halt();
    GroupLimits limits;
    Program s = schedule(b.finalize(), SchedulerConfig{limits, {}});
    EXPECT_EQ(s.validate(limits), "");
    // No group may hold more than 5 ALU operations.
    for (InstIdx leader = 0; leader < s.size();
         leader = s.groupEnd(leader)) {
        unsigned alu = 0;
        for (InstIdx i = leader; i < s.groupEnd(leader); ++i) {
            if (s.inst(i).unit() == UnitClass::kAlu)
                ++alu;
        }
        EXPECT_LE(alu, 5u);
    }
}

TEST(Scheduler, BranchStaysGroupFinalAndTargetsRemap)
{
    ProgramBuilder b("br");
    b.movi(intReg(1), 0);
    b.movi(intReg(9), 100);
    b.label("loop");
    b.addi(intReg(1), intReg(1), 1);
    b.cmpi(CmpCond::kLt, predReg(1), predReg(2), intReg(1), 5);
    b.br("loop");
    b.pred(predReg(1));
    b.halt();
    Program s = schedule(b.finalize());
    EXPECT_EQ(s.validate(), "");

    for (InstIdx i = 0; i < s.size(); ++i) {
        if (s.inst(i).isBranch()) {
            EXPECT_TRUE(s.inst(i).stop);
            EXPECT_TRUE(s.isGroupLeader(
                static_cast<InstIdx>(s.inst(i).imm)));
        }
    }
}

TEST(Scheduler, NeverMovesInstructionsAcrossBlocks)
{
    ProgramBuilder b("cross");
    b.movi(intReg(1), 0);
    b.label("second");
    b.movi(intReg(2), 2);
    b.halt();
    // Force "second" to be a leader by branching to it.
    ProgramBuilder b2("cross2");
    b2.cmpi(CmpCond::kEq, predReg(1), predReg(2), intReg(9), 0);
    b2.br("skip");
    b2.pred(predReg(1));
    b2.movi(intReg(1), 1);
    b2.label("skip");
    b2.movi(intReg(2), 2);
    b2.halt();
    Program s = schedule(b2.finalize());
    EXPECT_EQ(s.validate(), "");
    // The movi r2 (block "skip") may not share a group with movi r1.
    InstIdx r1 = 0, r2 = 0;
    for (InstIdx i = 0; i < s.size(); ++i) {
        if (s.inst(i).op == Opcode::kMovi && s.inst(i).dst == intReg(1))
            r1 = i;
        if (s.inst(i).op == Opcode::kMovi && s.inst(i).dst == intReg(2))
            r2 = i;
    }
    EXPECT_NE(s.groupStart(r1), s.groupStart(r2));
}

TEST(Scheduler, PreservesSemantics)
{
    // A program with predication, memory traffic and a loop; the
    // scheduled version must compute the same final state.
    ProgramBuilder b("sem");
    b.movi(intReg(1), 0x1000);
    b.movi(intReg(2), 10);
    b.movi(intReg(3), 0);
    b.label("loop");
    b.ld8(intReg(4), intReg(1), 0);
    b.add(intReg(3), intReg(3), intReg(4));
    b.andi(intReg(5), intReg(3), 1);
    b.cmpi(CmpCond::kEq, predReg(3), predReg(4), intReg(5), 1);
    b.st8(intReg(1), 8, intReg(3));
    b.pred(predReg(3));
    b.addi(intReg(1), intReg(1), 16);
    b.subi(intReg(2), intReg(2), 1);
    b.cmpi(CmpCond::kGt, predReg(1), predReg(2), intReg(2), 0);
    b.br("loop");
    b.pred(predReg(1));
    b.halt();
    Program seq = b.finalize();
    for (int i = 0; i < 16; ++i)
        seq.poke64(0x1000 + i * 16, i * 3 + 1);

    Program sched = schedule(seq);
    ASSERT_LT(sched.size(), seq.size() + 1); // same instruction count
    EXPECT_EQ(sched.size(), seq.size());

    cpu::FunctionalCpu a(seq), c(sched);
    auto ra = a.run();
    auto rc = c.run();
    EXPECT_TRUE(ra.halted);
    EXPECT_TRUE(rc.halted);
    EXPECT_EQ(ra.instsExecuted, rc.instsExecuted);
    EXPECT_EQ(a.regs().fingerprint(), c.regs().fingerprint());
    EXPECT_EQ(a.mem().fingerprint(), c.mem().fingerprint());
}

TEST(Scheduler, CarriesDataImage)
{
    ProgramBuilder b("img");
    b.movi(intReg(1), 1);
    b.halt();
    Program seq = b.finalize();
    seq.poke64(0x5000, 0xDEADBEEF);
    Program s = schedule(seq);
    EXPECT_EQ(s.dataImage().readByte(0x5000), 0xEF);
}

TEST(Scheduler, EmptyCyclesAreElided)
{
    // An FDIV (16 cycles) followed by its consumer: the schedule
    // orders them in consecutive groups (gaps are not padded with
    // nops; the hardware scoreboard provides the wait).
    ProgramBuilder b("gap");
    b.fdiv(fpReg(1), fpReg(2), fpReg(3));
    b.fadd(fpReg(4), fpReg(1), fpReg(2));
    b.halt();
    Program s = schedule(b.finalize());
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.validate(), "");
}

} // namespace
