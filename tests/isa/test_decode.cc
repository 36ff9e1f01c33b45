/**
 * @file
 * The decoded instruction table (Program::decoded()): every entry must
 * agree with its Instruction's accessors, regSlot() and the group
 * tables, on every bundled workload (both input sets) and on random
 * programs; hardwired and unused sources must fold to the constant
 * slots; and decoding must panic on a destination the timed stages
 * would index without a test.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "isa/builder.hh"
#include "isa/program.hh"
#include "workloads/workload.hh"

#include "support/random_program.hh"

namespace
{

using namespace ff;
using namespace ff::isa;

/** The slot a source read of @p r must name, derived from regSlot(). */
unsigned
expectedSource(RegId r)
{
    if (!r.valid())
        return kZeroSlot;
    if (r.idx == 0)
        return r.cls == RegClass::kPred ? kOneSlot : kZeroSlot;
    return static_cast<unsigned>(regSlot(r));
}

unsigned
expectedSize(Opcode op)
{
    switch (op) {
      case Opcode::kLd4:
      case Opcode::kSt4:
        return 4;
      case Opcode::kLd8:
      case Opcode::kSt8:
        return 8;
      default:
        return 0;
    }
}

/** Checks every decoded entry of @p p; @p label names the program. */
void
expectDecodedAgrees(const Program &p, const std::string &label)
{
    for (InstIdx i = 0; i < p.size(); ++i) {
        const Instruction &in = p.inst(i);
        const Decoded &d = p.decoded(i);
        const std::string at = label + " inst " + std::to_string(i);

        EXPECT_EQ(d.qp, expectedSource(in.qpred)) << at;
        EXPECT_EQ(d.src1, expectedSource(in.src1)) << at;
        EXPECT_EQ(d.src2, in.src2IsImm ? kZeroSlot
                                       : expectedSource(in.src2))
            << at;

        std::array<RegId, 2> dsts;
        const unsigned nd = in.destinations(dsts);
        ASSERT_EQ(d.numDsts, nd) << at;
        for (unsigned k = 0; k < nd; ++k) {
            EXPECT_EQ(static_cast<int>(d.dst[k]), regSlot(dsts[k]))
                << at;
            EXPECT_EQ(d.dst[k] >= kFirstPredSlot,
                      dsts[k].cls == RegClass::kPred)
                << at;
        }

        EXPECT_EQ(d.isLoad(), in.isLoad()) << at;
        EXPECT_EQ(d.isStore(), in.isStore()) << at;
        EXPECT_EQ(d.isBranch(), in.isBranch()) << at;
        EXPECT_EQ(d.isHalt(), in.isHalt()) << at;
        EXPECT_EQ(d.isFp(), in.isFp()) << at;
        EXPECT_EQ(d.unit, in.unit()) << at;
        EXPECT_EQ(d.latency, in.execLatency()) << at;
        EXPECT_EQ(d.size, expectedSize(in.op)) << at;

        bool group_halt = false;
        for (InstIdx j = p.groupStart(i); j < p.groupEnd(i); ++j)
            group_halt = group_halt || p.inst(j).isHalt();
        EXPECT_EQ(d.groupHasHalt(), group_halt) << at;
    }
}

TEST(ProgramDecode, BundledWorkloadsAgreeWithInstructions)
{
    for (const workloads::InputSet input :
         {workloads::InputSet::kDefault, workloads::InputSet::kAlternate}) {
        for (const std::string &name : workloads::workloadNames()) {
            const workloads::Workload w = workloads::buildWorkload(
                name, 5, compiler::SchedulerConfig(), input);
            expectDecodedAgrees(w.program,
                                name + "/" +
                                    workloads::inputSetName(input));
        }
    }
}

TEST(ProgramDecode, RandomProgramsAgreeWithInstructions)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Program p = testsupport::randomProgram(seed);
        expectDecodedAgrees(p, "seed " + std::to_string(seed));
    }
}

TEST(ProgramDecode, HardwiredAndUnusedSourcesReadConstants)
{
    ProgramBuilder b("consts", /*auto_stop=*/true);
    b.add(intReg(1), intReg(0), fpReg(0)); // r0 and f0 read 0
    b.addi(intReg(2), intReg(3), 7);       // immediate src2
    b.movi(intReg(4), 1);                  // no register source
    b.halt();
    const Program p = b.finalize();

    EXPECT_EQ(p.decoded(0).qp, kOneSlot); // p0 reads 1
    EXPECT_EQ(p.decoded(0).src1, kZeroSlot);
    EXPECT_EQ(p.decoded(0).src2, kZeroSlot);
    EXPECT_EQ(p.decoded(1).src1, static_cast<unsigned>(
                                      regSlot(intReg(3))));
    EXPECT_EQ(p.decoded(1).src2, kZeroSlot);
    EXPECT_EQ(p.decoded(2).src1, kZeroSlot);
    EXPECT_EQ(p.decoded(2).src2, kZeroSlot);
    EXPECT_TRUE(p.decoded(3).groupHasHalt());
    EXPECT_FALSE(p.decoded(0).groupHasHalt());
}

TEST(ProgramDecodeDeathTest, MissingDestinationPanics)
{
    Instruction add;
    add.op = Opcode::kAdd;
    add.src1 = intReg(1);
    add.src2 = intReg(2);
    add.stop = true;
    EXPECT_DEATH(Program("nodst", {add}), "has no destination");

    Instruction cmp;
    cmp.op = Opcode::kCmp;
    cmp.dst = predReg(1);
    cmp.src1 = intReg(1);
    cmp.src2 = intReg(2);
    cmp.stop = true;
    EXPECT_DEATH(Program("nodst2", {cmp}), "has no second destination");
}

TEST(ProgramDecode, InvalidProgramsStillBuildForTheValidator)
{
    // A write to r0 is the validator's to report; decoding leaves it.
    Instruction movi;
    movi.op = Opcode::kMovi;
    movi.dst = intReg(0);
    movi.stop = true;
    Instruction halt;
    halt.op = Opcode::kHalt;
    halt.stop = true;
    const Program p("r0", {movi, halt});
    EXPECT_NE(p.validate().find("hardwired"), std::string::npos);
}

} // namespace
