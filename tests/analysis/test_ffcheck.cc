/**
 * @file
 * Fixture coverage for every ffcheck diagnostic: each check is
 * demonstrated by one hand-written bad program that triggers it and
 * one near-miss that legitimately does not.
 */

#include <gtest/gtest.h>

#include "analysis/ffcheck.hh"
#include "isa/assembler.hh"

namespace ff
{
namespace
{

using analysis::CheckId;
using analysis::Finding;
using analysis::Report;
using analysis::Severity;

Report
checkAsm(const std::string &src)
{
    const isa::Program prog = isa::assembleOrDie(src, "fixture");
    return analysis::check(prog);
}

Report
checkInsts(std::vector<isa::Instruction> insts)
{
    const isa::Program prog("fixture", std::move(insts));
    return analysis::check(prog);
}

bool
has(const Report &rep, CheckId id)
{
    for (const Finding &f : rep.findings) {
        if (f.id == id)
            return true;
    }
    return false;
}

const Finding *
find(const Report &rep, CheckId id)
{
    for (const Finding &f : rep.findings) {
        if (f.id == id)
            return &f;
    }
    return nullptr;
}

// ----- def-before-use -----------------------------------------------

TEST(FfcheckUninit, ReadBeforeWriteIsFlagged)
{
    const Report rep = checkAsm("add r1 = r2, 1\n"
                                "halt\n");
    ASSERT_TRUE(has(rep, CheckId::kUninitRead));
    const Finding *f = find(rep, CheckId::kUninitRead);
    EXPECT_EQ(f->severity, Severity::kWarning);
    EXPECT_EQ(f->inst, 0u);
    EXPECT_EQ(f->srcLine, 1);
}

TEST(FfcheckUninit, NearMissWriteThenReadIsClean)
{
    const Report rep = checkAsm("movi r2 = 7 ;;\n"
                                "add r1 = r2, 1\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kUninitRead));
    EXPECT_TRUE(rep.clean(true));
}

TEST(FfcheckUninit, HardwiredZeroReadIsNotUninit)
{
    // r0 always reads zero by design; using it is not a diagnostic.
    const Report rep = checkAsm("add r1 = r0, 1\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kUninitRead));
}

TEST(FfcheckUninit, PredicateReadBeforeWriteIsFlagged)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "(p3) add r1 = r1, 1\n"
                                "halt\n");
    ASSERT_TRUE(has(rep, CheckId::kUninitPredicate));
    EXPECT_EQ(find(rep, CheckId::kUninitPredicate)->severity,
              Severity::kWarning);
}

TEST(FfcheckUninit, NearMissComparedPredicateIsClean)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "cmp.gt p3, p4 = r1, 0 ;;\n"
                                "(p3) add r1 = r1, 1\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kUninitPredicate));
}

// ----- issue-group legality -----------------------------------------

TEST(FfcheckGroups, IntraGroupRawIsFlagged)
{
    // No stop bit: movi and its consumer share one issue group.
    const Report rep = checkAsm("movi r1 = 5\n"
                                "add r2 = r1, 1\n"
                                "halt\n");
    ASSERT_TRUE(has(rep, CheckId::kGroupRaw));
    EXPECT_EQ(find(rep, CheckId::kGroupRaw)->inst, 1u);
    EXPECT_EQ(find(rep, CheckId::kGroupRaw)->srcLine, 2);
}

TEST(FfcheckGroups, NearMissStopBitSeparatesRaw)
{
    const Report rep = checkAsm("movi r1 = 5 ;;\n"
                                "add r2 = r1, 1\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kGroupRaw));
    EXPECT_TRUE(rep.clean(true));
}

TEST(FfcheckGroups, IntraGroupWawIsFlagged)
{
    const Report rep = checkAsm("movi r1 = 5\n"
                                "movi r1 = 6\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kGroupWaw));
}

TEST(FfcheckGroups, NearMissWawAcrossGroupsIsLegal)
{
    const Report rep = checkAsm("movi r1 = 5 ;;\n"
                                "movi r1 = 6\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kGroupWaw));
}

TEST(FfcheckGroups, StoreLoadSharingGroupIsFlagged)
{
    // v2: the pair provably overlaps (same base, same bytes), so the
    // finding upgrades from the conservative group-mem-order to the
    // definite alias-store-order diagnostic.
    const Report rep = checkAsm("movi r1 = 0x1000 ;;\n"
                                "st8 [r1] = r0\n"
                                "ld8 r2 = [r1]\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kAliasStoreOrder));
    EXPECT_FALSE(has(rep, CheckId::kGroupMemOrder));
}

TEST(FfcheckGroups, UnknownBaseStoreLoadPairStaysConservative)
{
    // The load result feeding the second access hides the base, so
    // the pair is only *possibly* conflicting: group-mem-order.
    const Report rep = checkAsm("movi r1 = 0x1000 ;;\n"
                                "ld8 r3 = [r1] ;;\n"
                                "st8 [r3] = r0\n"
                                "ld8 r2 = [r1+0x40]\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kGroupMemOrder));
    EXPECT_FALSE(has(rep, CheckId::kAliasStoreOrder));
}

TEST(FfcheckGroups, DisjointStoreThenLoadBreaksSlotOrderRule)
{
    // Distinct fields off one base: no data hazard, but the machine
    // still forbids any memory op after a store in its group (the
    // two-pass merge replays memory in slot order). Structural
    // group-mem-order, not the overlap diagnostic.
    const Report rep = checkAsm("movi r1 = 0x1000 ;;\n"
                                "st8 [r1] = r0\n"
                                "ld8 r2 = [r1+8]\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kGroupMemOrder));
    EXPECT_FALSE(has(rep, CheckId::kAliasStoreOrder));
}

TEST(FfcheckGroups, ProvablyDisjointLoadThenStoreSharesAGroup)
{
    // The load sits in an earlier slot than the store, so slot order
    // is respected, and the byte intervals are provably disjoint:
    // this grouping is exactly what alias-aware scheduling buys.
    const Report rep = checkAsm("movi r1 = 0x1000 ;;\n"
                                "ld8 r2 = [r1+8]\n"
                                "st8 [r1] = r0\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kGroupMemOrder));
    EXPECT_FALSE(has(rep, CheckId::kAliasStoreOrder));
}

TEST(FfcheckGroups, NearMissStoreThenLoadNextGroup)
{
    const Report rep = checkAsm("movi r1 = 0x1000 ;;\n"
                                "st8 [r1] = r0 ;;\n"
                                "ld8 r2 = [r1]\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kGroupMemOrder));
    EXPECT_FALSE(has(rep, CheckId::kAliasStoreOrder));
}

TEST(FfcheckGroups, OversubscribedAluGroupIsFlagged)
{
    // Six independent ALU writes in one group against five ALU units.
    const Report rep = checkAsm("movi r1 = 1\n"
                                "movi r2 = 2\n"
                                "movi r3 = 3\n"
                                "movi r4 = 4\n"
                                "movi r5 = 5\n"
                                "movi r6 = 6 ;;\n"
                                "halt\n");
    ASSERT_TRUE(has(rep, CheckId::kGroupOversubscribed));
    EXPECT_EQ(find(rep, CheckId::kGroupOversubscribed)->inst, 0u);
}

TEST(FfcheckGroups, NearMissFiveAluOpsFit)
{
    const Report rep = checkAsm("movi r1 = 1\n"
                                "movi r2 = 2\n"
                                "movi r3 = 3\n"
                                "movi r4 = 4\n"
                                "movi r5 = 5 ;;\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kGroupOversubscribed));
    EXPECT_TRUE(rep.clean(true));
}

// ----- control flow -------------------------------------------------

TEST(FfcheckCfg, BranchIntoGroupMiddleIsFlagged)
{
    // 'target' labels the second slot of the first group.
    const Report rep = checkAsm("movi r1 = 1\n"
                                "target:\n"
                                "movi r2 = 2 ;;\n"
                                "br target\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kBranchTarget));
}

TEST(FfcheckCfg, NearMissBranchToGroupLeader)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "target:\n"
                                "movi r2 = 2 ;;\n"
                                "movi r3 = 3 ;;\n"
                                "cmp.eq p1, p2 = r3, 99 ;;\n"
                                "(p1) br target\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kBranchTarget));
    EXPECT_EQ(rep.errors(), 0u);
}

TEST(FfcheckCfg, BranchTargetOutOfRangeIsFlagged)
{
    std::vector<isa::Instruction> insts(2);
    insts[0].op = isa::Opcode::kBr;
    insts[0].imm = 99; // beyond the program
    insts[0].stop = true;
    insts[1].op = isa::Opcode::kHalt;
    insts[1].stop = true;
    const Report rep = checkInsts(std::move(insts));
    EXPECT_TRUE(has(rep, CheckId::kBranchTarget));
}

TEST(FfcheckCfg, BranchNotGroupFinalIsFlagged)
{
    std::vector<isa::Instruction> insts(3);
    insts[0].op = isa::Opcode::kBr;
    insts[0].imm = 2;
    insts[0].stop = false; // shares its group with the movi below
    insts[1].op = isa::Opcode::kMovi;
    insts[1].dst = isa::intReg(1);
    insts[1].imm = 1;
    insts[1].stop = true;
    insts[2].op = isa::Opcode::kHalt;
    insts[2].stop = true;
    const Report rep = checkInsts(std::move(insts));
    EXPECT_TRUE(has(rep, CheckId::kBranchNotGroupFinal));
}

TEST(FfcheckCfg, NearMissGroupFinalBranch)
{
    std::vector<isa::Instruction> insts(3);
    insts[0].op = isa::Opcode::kBr;
    insts[0].imm = 2;
    insts[0].stop = true;
    insts[1].op = isa::Opcode::kMovi;
    insts[1].dst = isa::intReg(1);
    insts[1].imm = 1;
    insts[1].stop = true;
    insts[2].op = isa::Opcode::kHalt;
    insts[2].stop = true;
    const Report rep = checkInsts(std::move(insts));
    EXPECT_FALSE(has(rep, CheckId::kBranchNotGroupFinal));
}

TEST(FfcheckCfg, FallOffEndIsFlagged)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "cmp.gt p1, p2 = r1, 0 ;;\n"
                                "(p1) br done\n"
                                "halt ;;\n"
                                "done:\n"
                                "movi r2 = 2\n");
    ASSERT_TRUE(has(rep, CheckId::kFallOffEnd));
    EXPECT_EQ(find(rep, CheckId::kFallOffEnd)->severity,
              Severity::kError);
}

TEST(FfcheckCfg, NearMissEveryPathHalts)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "cmp.gt p1, p2 = r1, 0 ;;\n"
                                "(p1) br done\n"
                                "halt ;;\n"
                                "done:\n"
                                "movi r2 = 2\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kFallOffEnd));
    EXPECT_FALSE(has(rep, CheckId::kHaltUnreachable));
    EXPECT_EQ(rep.errors(), 0u);
}

TEST(FfcheckCfg, InfiniteLoopIsFlagged)
{
    // The back-branch is unconditional: halt can never be reached.
    const Report rep = checkAsm("loop:\n"
                                "movi r1 = 1 ;;\n"
                                "br loop\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kHaltUnreachable));
    EXPECT_TRUE(has(rep, CheckId::kUnreachableCode));
}

TEST(FfcheckCfg, NearMissConditionalLoopIsClean)
{
    const Report rep = checkAsm("movi r2 = 10 ;;\n"
                                "loop:\n"
                                "sub r2 = r2, 1 ;;\n"
                                "cmp.gt p1, p2 = r2, 0 ;;\n"
                                "(p1) br loop\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kHaltUnreachable));
    EXPECT_FALSE(has(rep, CheckId::kUnreachableCode));
    EXPECT_TRUE(rep.clean(true));
}

TEST(FfcheckCfg, UnreachableBlockIsAWarningNotError)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "br end\n"
                                "movi r2 = 2 ;;\n" // dead code
                                "end:\n"
                                "halt\n");
    ASSERT_TRUE(has(rep, CheckId::kUnreachableCode));
    EXPECT_EQ(find(rep, CheckId::kUnreachableCode)->severity,
              Severity::kWarning);
    EXPECT_EQ(rep.errors(), 0u);
}

// ----- predicate sanity ---------------------------------------------

TEST(FfcheckPred, AliasedComplementaryPairIsFlagged)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "cmp.eq p1, p1 = r1, 0\n"
                                "halt\n");
    ASSERT_TRUE(has(rep, CheckId::kPredPairAliased));
    EXPECT_EQ(find(rep, CheckId::kPredPairAliased)->srcLine, 2);
}

TEST(FfcheckPred, NearMissDistinctPairIsClean)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "cmp.eq p1, p2 = r1, 0\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kPredPairAliased));
    EXPECT_EQ(rep.errors(), 0u);
}

TEST(FfcheckPred, NonPredicateDestinationIsFlagged)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "cmp.eq r2, p2 = r1, 0\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kPredDestClass));
}

TEST(FfcheckPred, NearMissPredicateDestinationsAreClean)
{
    const Report rep = checkAsm("movi r1 = 1\n"
                                "fcmp.lt p5, p6 = f0, f0\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kPredDestClass));
}

// ----- structural ---------------------------------------------------

TEST(FfcheckStructural, WriteToHardwiredZeroIsFlagged)
{
    const Report rep = checkAsm("movi r0 = 5\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kWriteHardwired));
}

TEST(FfcheckStructural, NearMissWritableRegisterIsClean)
{
    const Report rep = checkAsm("movi r1 = 5\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kWriteHardwired));
}

TEST(FfcheckStructural, RegisterIndexOutOfRangeIsFlagged)
{
    std::vector<isa::Instruction> insts(2);
    insts[0].op = isa::Opcode::kMovi;
    insts[0].dst = isa::intReg(64); // file holds r0..r63
    insts[0].imm = 1;
    insts[0].stop = true;
    insts[1].op = isa::Opcode::kHalt;
    insts[1].stop = true;
    const Report rep = checkInsts(std::move(insts));
    EXPECT_TRUE(has(rep, CheckId::kRegOutOfRange));
}

TEST(FfcheckStructural, NearMissHighestRegisterIsLegal)
{
    std::vector<isa::Instruction> insts(2);
    insts[0].op = isa::Opcode::kMovi;
    insts[0].dst = isa::intReg(63);
    insts[0].imm = 1;
    insts[0].stop = true;
    insts[1].op = isa::Opcode::kHalt;
    insts[1].stop = true;
    const Report rep = checkInsts(std::move(insts));
    EXPECT_FALSE(has(rep, CheckId::kRegOutOfRange));
}

TEST(FfcheckStructural, MissingFinalStopIsFlagged)
{
    std::vector<isa::Instruction> insts(1);
    insts[0].op = isa::Opcode::kHalt;
    insts[0].stop = false;
    const Report rep = checkInsts(std::move(insts));
    EXPECT_TRUE(has(rep, CheckId::kMissingFinalStop));
}

TEST(FfcheckStructural, NearMissFinalStopIsClean)
{
    std::vector<isa::Instruction> insts(1);
    insts[0].op = isa::Opcode::kHalt;
    insts[0].stop = true;
    const Report rep = checkInsts(std::move(insts));
    EXPECT_FALSE(has(rep, CheckId::kMissingFinalStop));
    EXPECT_TRUE(rep.clean(true));
}

TEST(FfcheckStructural, MissingHaltIsFlagged)
{
    const Report rep = checkAsm("movi r1 = 5\n");
    EXPECT_TRUE(has(rep, CheckId::kNoHalt));
}

TEST(FfcheckStructural, EmptyProgramIsFlagged)
{
    const Report rep = checkInsts({});
    EXPECT_TRUE(has(rep, CheckId::kNoHalt));
    EXPECT_GE(rep.errors(), 1u);
}

// ----- memory address checks ---------------------------------------

TEST(FfcheckMemory, StaticallyNullLoadIsFlagged)
{
    // r2 is never written: it propagates as architectural zero.
    const Report rep = checkAsm("ld8 r1 = [r2]\n"
                                "halt\n");
    ASSERT_TRUE(has(rep, CheckId::kNullAccess));
    EXPECT_EQ(find(rep, CheckId::kNullAccess)->severity,
              Severity::kError);
}

TEST(FfcheckMemory, NearMissNonNullConstantAddress)
{
    const Report rep = checkAsm("movi r2 = 0x1000 ;;\n"
                                "ld8 r1 = [r2]\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kNullAccess));
}

TEST(FfcheckMemory, MisalignedConstantStoreIsFlagged)
{
    const Report rep = checkAsm("movi r2 = 0x1004 ;;\n"
                                "st8 [r2] = r0\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kMisalignedAccess));
}

TEST(FfcheckMemory, NearMissFourByteOpToleratesFourAlignment)
{
    // The same address is fine for a 4-byte access.
    const Report rep = checkAsm("movi r2 = 0x1004 ;;\n"
                                "st4 [r2] = r0\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kMisalignedAccess));
}

TEST(FfcheckMemory, MisalignmentThroughAddChainIsFlagged)
{
    // movi/add chain: 0x1000 + 3 = 0x1003, provably misaligned.
    const Report rep = checkAsm("movi r2 = 0x1000 ;;\n"
                                "add r3 = r2, 3 ;;\n"
                                "ld4 r1 = [r3]\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kMisalignedAccess));
}

TEST(FfcheckMemory, ExactAddressWithoutCongruenceNamesTheAddress)
{
    // r1 is never written, so r5 = r1 & r6 is exactly zero; r6 joins
    // 0 with an odd constant, so the AND carries no congruence. The
    // message must give the exact address, not a made-up remainder.
    const Report rep = checkAsm("movi r9 = 1 ;;\n"
                                "cmp.eq p1, p2 = r9, 1 ;;\n"
                                "(p1) movi r6 = 23097 ;;\n"
                                "and r5 = r1, r6 ;;\n"
                                "st4 [r5+4097] = r0\n"
                                "halt\n");
    const Finding *f = find(rep, CheckId::kMisalignedAccess);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->message,
              "inst 4: effective address 0x1001 is not 4-byte aligned");
}

TEST(FfcheckMemory, NullProvenByRangesIsStaticallyNull)
{
    // x & 0 is zero whatever the loaded x is.
    const Report rep = checkAsm("movi r2 = 0x1000 ;;\n"
                                "ld8 r3 = [r2] ;;\n"
                                "and r4 = r3, 0 ;;\n"
                                "ld8 r1 = [r4]\n"
                                "halt\n");
    const Finding *f = find(rep, CheckId::kNullAccess);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->inst, 3u);
    EXPECT_EQ(f->message, "inst 3: effective address is statically null");
}

TEST(FfcheckMemory, NearMissUnknownAddressIsNotFlagged)
{
    // The base comes from a load: not provably constant, no finding.
    const Report rep = checkAsm("movi r2 = 0x1000 ;;\n"
                                "ld8 r3 = [r2] ;;\n"
                                "ld8 r1 = [r3]\n"
                                "halt\n");
    EXPECT_FALSE(has(rep, CheckId::kNullAccess));
    EXPECT_FALSE(has(rep, CheckId::kMisalignedAccess));
}

// ----- reporting ----------------------------------------------------

TEST(FfcheckPressure, NoteCarriesPeakPressure)
{
    const Report rep = checkAsm("movi r1 = 1 ;;\n"
                                "movi r2 = 2 ;;\n"
                                "add r3 = r1, r2\n"
                                "halt\n");
    ASSERT_TRUE(has(rep, CheckId::kRegPressure));
    const Finding *f = find(rep, CheckId::kRegPressure);
    EXPECT_EQ(f->severity, Severity::kNote);
    EXPECT_NE(f->message.find("2 int"), std::string::npos);
}

TEST(FfcheckPressure, NotesDoNotAffectCleanliness)
{
    const Report rep = checkAsm("movi r1 = 1\n"
                                "halt\n");
    EXPECT_TRUE(has(rep, CheckId::kRegPressure));
    EXPECT_TRUE(rep.clean(true));
}

// ----- report plumbing ----------------------------------------------

TEST(FfcheckReport, RenderIncludesSourceLineAndCheckName)
{
    const Report rep = checkAsm("movi r1 = 5\n"
                                "movi r1 = 6\n"
                                "halt\n");
    const std::string text = analysis::render(rep, "prog.s");
    EXPECT_NE(text.find("prog.s:2"), std::string::npos);
    EXPECT_NE(text.find("[group-waw]"), std::string::npos);
}

TEST(FfcheckReport, StrictRejectsWarningsOnly)
{
    const Report rep = checkAsm("add r1 = r2, 1 ;;\n"
                                "movi r3 = 0x100 ;;\n"
                                "st8 [r3] = r1\n"
                                "halt\n");
    EXPECT_EQ(rep.errors(), 0u);
    EXPECT_GE(rep.warnings(), 1u);
    EXPECT_TRUE(rep.clean(false));
    EXPECT_FALSE(rep.clean(true));
}

} // namespace
} // namespace ff
