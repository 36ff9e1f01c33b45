/**
 * @file
 * Unit tests for integer value-range propagation: exact constants
 * folded the way cpu::evaluate computes them, the interval and
 * power-of-two congruence lattice, widening at loop joins, and the
 * alignment facts the verifier derives for non-constant addresses.
 */

#include <gtest/gtest.h>

#include "analysis/range.hh"
#include "cpu/regfile.hh"
#include "isa/assembler.hh"

namespace ff
{
namespace
{

using analysis::Cfg;
using analysis::Range;
using analysis::RangeProp;
using analysis::RangeState;

RangeState
zeroState()
{
    RangeState s;
    s.seeded = true;
    s.regs.assign(cpu::kNumRegSlots, Range::constant(0));
    return s;
}

Range
regOf(const RangeState &s, isa::RegId r)
{
    return s.regs[static_cast<std::size_t>(cpu::regSlot(r))];
}

isa::Instruction
aluImm(isa::Opcode op, isa::RegId dst, isa::RegId src1,
       std::int64_t imm)
{
    isa::Instruction in;
    in.op = op;
    in.dst = dst;
    in.src1 = src1;
    in.imm = imm;
    in.src2IsImm = true;
    return in;
}

/** Succeeds when @p r is exactly the constant @p v. */
::testing::AssertionResult
isExactly(const Range &r, std::uint64_t v)
{
    if (r == Range::constant(v))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "range [" << r.lo << ", " << r.hi << "] rem " << r.rem
           << " mod 2^" << unsigned{r.alignLog2} << " is not exactly "
           << v;
}

/** Runs `movi r1 = v` then `op r2 = r1, imm` from reset; returns r2. */
Range
foldImm(isa::Opcode op, std::int64_t v, std::int64_t imm)
{
    RangeState s = zeroState();
    RangeProp::transfer(
        aluImm(isa::Opcode::kMovi, isa::intReg(1), isa::noReg(), v), &s);
    RangeProp::transfer(aluImm(op, isa::intReg(2), isa::intReg(1), imm),
                        &s);
    return regOf(s, isa::intReg(2));
}

// ----- exact constants: transfer function --------------------------

TEST(ConstPropTransfer, MoviProducesConstant)
{
    RangeState s = zeroState();
    RangeProp::transfer(aluImm(isa::Opcode::kMovi, isa::intReg(3),
                               isa::noReg(), 0x1234),
                        &s);
    EXPECT_TRUE(isExactly(regOf(s, isa::intReg(3)), 0x1234));
}

TEST(ConstPropTransfer, AddChainFolds)
{
    EXPECT_TRUE(isExactly(foldImm(isa::Opcode::kAdd, 0x1000, 8), 0x1008));
}

TEST(ConstPropTransfer, ShiftAmountIsMaskedLikeTheCpu)
{
    // cpu::evaluate masks shift counts to 6 bits; 67 behaves as 3.
    EXPECT_TRUE(isExactly(foldImm(isa::Opcode::kShl, 1, 67), 8));
}

TEST(ConstPropTransfer, ArithmeticShiftFoldsExactly)
{
    // No interval rule covers sra; exact operands still fold.
    EXPECT_TRUE(isExactly(foldImm(isa::Opcode::kSra, -64, 3),
                          static_cast<std::uint64_t>(-8)));
}

TEST(ConstPropTransfer, XorFoldsExactly)
{
    EXPECT_TRUE(isExactly(foldImm(isa::Opcode::kXor, 0x0F0F, 0x00FF),
                          0x0FF0));
}

TEST(ConstPropTransfer, SubUnderflowFoldsExactly)
{
    // The interval rule gives up on a borrow; the fold wraps.
    EXPECT_TRUE(isExactly(foldImm(isa::Opcode::kSub, 3, 5),
                          static_cast<std::uint64_t>(-2)));
}

TEST(ConstPropTransfer, MulOverflowFoldsExactly)
{
    // (2^32 + 1)^2 = 2^64 + 2^33 + 1 wraps to 2^33 + 1.
    EXPECT_TRUE(isExactly(
        foldImm(isa::Opcode::kMul, 0x100000001, 0x100000001),
        0x200000001));
}

TEST(ConstPropTransfer, LoadDropsDestinationToBottom)
{
    RangeState s = zeroState();
    isa::Instruction in;
    in.op = isa::Opcode::kLd8;
    in.dst = isa::intReg(4);
    in.src1 = isa::intReg(1);
    RangeProp::transfer(in, &s);
    EXPECT_FALSE(regOf(s, isa::intReg(4)).isConstant());
}

TEST(ConstPropTransfer, PredicatedWriteMeetsOldAndNew)
{
    // (p1) movi r3 = 7 may retain the old value 0.
    RangeState s = zeroState();
    isa::Instruction in = aluImm(isa::Opcode::kMovi, isa::intReg(3),
                                 isa::noReg(), 7);
    in.qpred = isa::predReg(1);
    RangeProp::transfer(in, &s);
    EXPECT_FALSE(regOf(s, isa::intReg(3)).isConstant());
}

TEST(ConstPropTransfer, PredicatedRewriteOfSameValueStaysKnown)
{
    RangeState s = zeroState();
    isa::Instruction in = aluImm(isa::Opcode::kMovi, isa::intReg(3),
                                 isa::noReg(), 7);
    RangeProp::transfer(in, &s);
    in.qpred = isa::predReg(1);
    RangeProp::transfer(in, &s);
    EXPECT_TRUE(isExactly(regOf(s, isa::intReg(3)), 7));
}

TEST(ConstPropTransfer, OperandFromBottomGoesToBottom)
{
    RangeState s = zeroState();
    s.regs[static_cast<std::size_t>(cpu::regSlot(isa::intReg(1)))] =
        Range::top();
    RangeProp::transfer(
        aluImm(isa::Opcode::kAdd, isa::intReg(2), isa::intReg(1), 8),
        &s);
    EXPECT_FALSE(regOf(s, isa::intReg(2)).isConstant());
}

// ----- exact constants: whole-program dataflow ----------------------

TEST(ConstPropDataflow, EntryStateIsArchitecturalZero)
{
    const isa::Program prog =
        isa::assembleOrDie("ld8 r1 = [r5]\n"
                           "halt\n",
                           "cp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    // r5 is never written: it is provably the reset value zero.
    EXPECT_TRUE(isExactly(rp.rangeBefore(0, isa::intReg(5)), 0));
    EXPECT_TRUE(isExactly(rp.effectiveAddress(0), 0));
}

TEST(ConstPropDataflow, HardwiredRegistersAreConstant)
{
    const isa::Program prog = isa::assembleOrDie("halt\n", "cp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    EXPECT_TRUE(isExactly(rp.rangeBefore(0, isa::intReg(0)), 0));
    EXPECT_TRUE(isExactly(rp.rangeBefore(0, isa::predReg(0)), 1));
}

TEST(ConstPropDataflow, EffectiveAddressFoldsBaseAndOffset)
{
    const isa::Program prog =
        isa::assembleOrDie("movi r2 = 0x1000 ;;\n"
                           "ld8 r1 = [r2+8]\n"
                           "halt\n",
                           "cp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    EXPECT_TRUE(isExactly(rp.effectiveAddress(1), 0x1008));
}

TEST(ConstPropDataflow, EffectiveAddressWrapsLikeTheCpu)
{
    // -8 + 32760 wraps past 2^64, which the overflow-guarded interval
    // add cannot follow; the exact fold lands on 0x7ff0.
    const isa::Program prog =
        isa::assembleOrDie("movi r2 = -8 ;;\n"
                           "ld8 r1 = [r2+32760]\n"
                           "halt\n",
                           "cp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    EXPECT_TRUE(isExactly(rp.effectiveAddress(1), 0x7ff0));
}

TEST(ConstPropDataflow, LoopJoinFallsToBottom)
{
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 0 ;;\n"
                           "loop:\n"
                           "add r1 = r1, 1 ;;\n"
                           "cmp.lt p1, p2 = r1, 10 ;;\n"
                           "(p1) br loop\n"
                           "halt\n",
                           "cp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    // At the loop head r1 merges 0 (entry) with increments.
    EXPECT_FALSE(rp.rangeBefore(1, isa::intReg(1)).isConstant());
    // A register untouched on every path stays provably zero there.
    EXPECT_TRUE(isExactly(rp.rangeBefore(1, isa::intReg(5)), 0));
}

TEST(ConstPropDataflow, UnreachableCodeClaimsNoConstants)
{
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 5 ;;\n"
                           "br end\n"
                           "movi r2 = 7 ;;\n"
                           "end:\n"
                           "halt\n",
                           "cp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    // Instruction 2 is dead; even r1 is not claimed constant there.
    EXPECT_FALSE(rp.rangeBefore(2, isa::intReg(1)).isConstant());
    // At the (reachable) join it is 5 on every incoming path.
    EXPECT_TRUE(isExactly(rp.rangeBefore(3, isa::intReg(1)), 5));
}

// ----- lattice cells ------------------------------------------------

TEST(RangeCell, ConstantIsExact)
{
    const Range r = Range::constant(24);
    EXPECT_TRUE(r.isConstant());
    EXPECT_TRUE(r.provablyNonZero());
    EXPECT_TRUE(r.provablyAligned(8));
    EXPECT_FALSE(r.provablyMisaligned(8));
    EXPECT_TRUE(Range::constant(20).provablyMisaligned(8));
    EXPECT_TRUE(Range::constant(0).provablyZero());
}

TEST(RangeCell, TopClaimsNothing)
{
    const Range t = Range::top();
    EXPECT_FALSE(t.provablyZero());
    EXPECT_FALSE(t.provablyNonZero());
    EXPECT_FALSE(t.provablyAligned(8));
    EXPECT_FALSE(t.provablyMisaligned(8));
}

TEST(RangeCell, JoinKeepsCommonCongruence)
{
    Range a = Range::constant(8);
    const Range b = Range::constant(16);
    a.joinInto(b);
    EXPECT_EQ(a.lo, 8u);
    EXPECT_EQ(a.hi, 16u);
    EXPECT_TRUE(a.provablyAligned(8));
    EXPECT_TRUE(a.provablyNonZero()); // lo > 0
}

TEST(RangeCell, JoinWidensAfterRepeatedGrowth)
{
    Range a = Range::constant(0);
    for (std::uint64_t v = 8; v <= 64; v += 8)
        a.joinInto(Range::constant(v));
    // The upper bound must have widened rather than crawling.
    EXPECT_EQ(a.hi, ~std::uint64_t{0});
    EXPECT_EQ(a.lo, 0u);
    // Congruence survives widening: every joined value was 0 mod 8.
    EXPECT_TRUE(a.provablyAligned(8));
}

// ----- transfer function --------------------------------------------

TEST(RangeTransfer, ShiftLeftGainsAlignment)
{
    RangeState s = zeroState();
    // r1 becomes unknown via a load, then r2 = r1 << 3 is 0 mod 8.
    isa::Instruction ld;
    ld.op = isa::Opcode::kLd8;
    ld.dst = isa::intReg(1);
    ld.src1 = isa::intReg(9);
    RangeProp::transfer(ld, &s);
    EXPECT_FALSE(regOf(s, isa::intReg(1)).provablyAligned(2));

    RangeProp::transfer(
        aluImm(isa::Opcode::kShl, isa::intReg(2), isa::intReg(1), 3),
        &s);
    EXPECT_TRUE(regOf(s, isa::intReg(2)).provablyAligned(8));
    EXPECT_FALSE(regOf(s, isa::intReg(2)).isConstant());
}

TEST(RangeTransfer, OrPinsLowBits)
{
    RangeState s = zeroState();
    isa::Instruction ld;
    ld.op = isa::Opcode::kLd8;
    ld.dst = isa::intReg(1);
    ld.src1 = isa::intReg(9);
    RangeProp::transfer(ld, &s);
    RangeProp::transfer(
        aluImm(isa::Opcode::kShl, isa::intReg(2), isa::intReg(1), 3),
        &s);
    RangeProp::transfer(
        aluImm(isa::Opcode::kOr, isa::intReg(2), isa::intReg(2), 4),
        &s);
    // r2 is 4 mod 8 whatever the loaded value was.
    const Range r = regOf(s, isa::intReg(2));
    EXPECT_TRUE(r.provablyMisaligned(8));
    EXPECT_TRUE(r.provablyAligned(4));
    EXPECT_TRUE(r.provablyNonZero());
}

TEST(RangeTransfer, AndWithConstantMaskForcesAlignment)
{
    RangeState s = zeroState();
    isa::Instruction ld;
    ld.op = isa::Opcode::kLd8;
    ld.dst = isa::intReg(1);
    ld.src1 = isa::intReg(9);
    RangeProp::transfer(ld, &s);
    RangeProp::transfer(
        aluImm(isa::Opcode::kAnd, isa::intReg(2), isa::intReg(1),
               0x7FF8),
        &s);
    const Range r = regOf(s, isa::intReg(2));
    EXPECT_TRUE(r.provablyAligned(8));
    EXPECT_LE(r.hi, 0x7FF8u);
}

TEST(RangeTransfer, PredicateDestinationsClampToBoolean)
{
    RangeState s = zeroState();
    isa::Instruction cmp;
    cmp.op = isa::Opcode::kCmp;
    cmp.dst = isa::predReg(1);
    cmp.dst2 = isa::predReg(2);
    cmp.src1 = isa::intReg(1);
    cmp.src2 = isa::intReg(2);
    RangeProp::transfer(cmp, &s);
    EXPECT_LE(regOf(s, isa::predReg(1)).hi, 1u);
    EXPECT_LE(regOf(s, isa::predReg(2)).hi, 1u);
}

TEST(RangeTransfer, PredicatedWriteJoinsWithTheOldValue)
{
    RangeState s = zeroState();
    isa::Instruction in = aluImm(isa::Opcode::kMovi, isa::intReg(3),
                                 isa::noReg(), 8);
    in.qpred = isa::predReg(1);
    RangeProp::transfer(in, &s);
    const Range r = regOf(s, isa::intReg(3));
    // 0 meet 8: interval [0, 8], still 0 mod 8.
    EXPECT_EQ(r.lo, 0u);
    EXPECT_EQ(r.hi, 8u);
    EXPECT_TRUE(r.provablyAligned(8));
}

// ----- whole-program dataflow ---------------------------------------

TEST(RangeDataflow, LoopStrideKeepsCongruenceThroughWidening)
{
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 0x1000 ;;\n"
                           "loop:\n"
                           "ld8 r2 = [r1]\n"
                           "add r1 = r1, 8 ;;\n"
                           "cmp.lt p1, p2 = r1, 0x2000 ;;\n"
                           "(p1) br loop\n"
                           "halt\n",
                           "rp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    // The induction variable's interval widens, but its stride-8
    // congruence is invariant: the load is provably 8-byte aligned.
    const Range addr = rp.effectiveAddress(1);
    EXPECT_FALSE(addr.isConstant());
    EXPECT_TRUE(addr.provablyAligned(8));
    // Nonzero-ness is NOT preserved: widening pushes hi to the top,
    // after which the overflow-sound add drops the interval floor.
    EXPECT_FALSE(addr.provablyNonZero());
}

TEST(RangeDataflow, UnreachableCodeClaimsNothing)
{
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 8 ;;\n"
                           "br end\n"
                           "movi r1 = 4 ;;\n"
                           "end:\n"
                           "halt\n",
                           "rp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    const Range dead = rp.rangeBefore(2, isa::intReg(1));
    EXPECT_FALSE(dead.isConstant());
    EXPECT_FALSE(dead.provablyNonZero());
    // At the reachable join r1 is exactly 8.
    EXPECT_EQ(rp.rangeBefore(3, isa::intReg(1)).lo, 8u);
    EXPECT_EQ(rp.rangeBefore(3, isa::intReg(1)).hi, 8u);
}

TEST(RangeDataflow, NeverWrittenRegisterIsArchitecturalZero)
{
    const isa::Program prog = isa::assembleOrDie("ld8 r1 = [r5]\n"
                                                 "halt\n",
                                                 "rp");
    const Cfg cfg(prog);
    const RangeProp rp(cfg);
    EXPECT_TRUE(rp.rangeBefore(0, isa::intReg(5)).provablyZero());
    EXPECT_TRUE(rp.effectiveAddress(0).provablyZero());
}

} // namespace
} // namespace ff
