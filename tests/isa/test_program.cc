/** @file Unit tests for Program: group derivation, data, validation. */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "isa/program.hh"

namespace
{

using namespace ff::isa;
using ff::Addr;
using ff::memory::SparseMemory;

Program
tinyValid()
{
    ProgramBuilder b("tiny", /*auto_stop=*/true);
    b.movi(intReg(1), 5);
    b.addi(intReg(2), intReg(1), 1);
    b.halt();
    return b.finalize();
}

TEST(Program, GroupDerivationFromStopBits)
{
    ProgramBuilder b("groups", /*auto_stop=*/false);
    b.movi(intReg(1), 1);
    b.movi(intReg(2), 2);
    b.stop(); // group 0: insts 0-1
    b.movi(intReg(3), 3);
    b.stop(); // group 1: inst 2
    b.halt(); // group 2: inst 3 (finalize sets the stop bit)
    Program p = b.finalize();

    EXPECT_EQ(p.groupStart(0), 0u);
    EXPECT_EQ(p.groupStart(1), 0u);
    EXPECT_EQ(p.groupEnd(1), 2u);
    EXPECT_EQ(p.groupStart(2), 2u);
    EXPECT_EQ(p.groupEnd(2), 3u);
    EXPECT_TRUE(p.isGroupLeader(0));
    EXPECT_FALSE(p.isGroupLeader(1));
    EXPECT_TRUE(p.isGroupLeader(2));
    EXPECT_TRUE(p.isGroupLeader(3));
    EXPECT_EQ(p.nextGroup(0), 2u);
}

TEST(Program, InstAddrSpacing)
{
    EXPECT_EQ(Program::instAddr(0), Program::kTextBase);
    EXPECT_EQ(Program::instAddr(2),
              Program::kTextBase + 2 * Program::kBytesPerInst);
}

TEST(Program, DataImagePokes)
{
    Program p = tinyValid();
    p.poke64(0x1000, 0x1122334455667788ULL);
    p.poke32(0x2000, 0xAABBCCDDu);
    p.pokeDouble(0x3000, 1.5);

    const SparseMemory &img = p.dataImage();
    EXPECT_EQ(img.readByte(0x1000), 0x88);
    EXPECT_EQ(img.readByte(0x1007), 0x11);
    EXPECT_EQ(img.readByte(0x2003), 0xAA);
    EXPECT_EQ(img.readByte(0x4000), 0x00); // untouched reads zero
}

TEST(Program, DataImageCrossPageWrite)
{
    Program p = tinyValid();
    const Addr boundary = SparseMemory::kPageBytes - 4;
    p.poke64(boundary, 0x0807060504030201ULL);
    EXPECT_EQ(p.dataImage().readByte(boundary), 0x01);
    EXPECT_EQ(p.dataImage().readByte(boundary + 7), 0x08);
    EXPECT_EQ(p.dataImage().touchedPages(), 2u);
}

/** tinyValid() with data on three pages, one poke crossing a page. */
Program
tinyWithData()
{
    Program p = tinyValid();
    p.poke64(0x1000, 0x1122334455667788ULL);
    p.poke32(0x2000, 0xAABBCCDDu);
    p.poke64(SparseMemory::kPageBytes - 4, 0x0807060504030201ULL);
    return p;
}

TEST(Program, ContentHashIsPinned)
{
    // Result-cache keys and FSNP/FFPT program identities embed this
    // digest; changing it orphans every stored entry and snapshot, so
    // it may only change deliberately.
    EXPECT_EQ(tinyValid().contentHash(), 0xc5e4e09211e5da76ULL);
    EXPECT_EQ(tinyWithData().contentHash(), 0x107f2879dd97f7efULL);
}

TEST(Program, ContentHashFollowsInPlacePokes)
{
    // Hash first, then poke the same object: every poke must drop the
    // memoized digest.
    Program p = tinyValid();
    const std::uint64_t before = p.contentHash();
    const Program hashed_copy = p; // carries the memo along

    p.poke64(0x1000, 0x1122334455667788ULL);
    const std::uint64_t one = p.contentHash();
    EXPECT_NE(one, before);
    p.poke32(0x2000, 0xAABBCCDDu);
    const std::uint64_t two = p.contentHash();
    EXPECT_NE(two, one);
    p.poke64(SparseMemory::kPageBytes - 4, 0x0807060504030201ULL);
    EXPECT_NE(p.contentHash(), two);
    EXPECT_EQ(p.contentHash(), tinyWithData().contentHash());
    p.pokeDouble(0x3000, 1.5);
    Program fresh = tinyWithData();
    fresh.pokeDouble(0x3000, 1.5);
    EXPECT_EQ(p.contentHash(), fresh.contentHash());

    // The copy still describes its own, unpoked image.
    EXPECT_EQ(hashed_copy.contentHash(), before);
    EXPECT_EQ(hashed_copy.contentHash(), tinyValid().contentHash());
}

TEST(Program, SequentializeFlattensGroups)
{
    ProgramBuilder b("seq", /*auto_stop=*/false);
    b.movi(intReg(1), 1);
    b.movi(intReg(2), 2);
    b.stop();
    b.label("l");
    b.br("l");
    b.halt();
    Program grouped = b.finalize();
    grouped.poke64(0x100, 7);

    const Program flat = sequentialize(grouped);
    for (ff::InstIdx i = 0; i < flat.size(); ++i) {
        EXPECT_TRUE(flat.inst(i).stop);
        EXPECT_TRUE(flat.isGroupLeader(i));
    }
    // Branch targets and the data image survive.
    EXPECT_EQ(flat.inst(2).imm, 2);
    EXPECT_EQ(flat.dataImage().readByte(0x100), 7);
    EXPECT_EQ(flat.validate(), "");
}

TEST(ProgramValidate, AcceptsWellFormed)
{
    EXPECT_EQ(tinyValid().validate(), "");
}

TEST(ProgramValidate, RejectsEmpty)
{
    Program p;
    EXPECT_NE(p.validate(), "");
}

TEST(ProgramValidate, RejectsMissingHalt)
{
    ProgramBuilder b("nohalt");
    b.movi(intReg(1), 1);
    Program p = b.finalize();
    EXPECT_NE(p.validate().find("halt"), std::string::npos);
}

TEST(ProgramValidate, RejectsBranchTargetInsideGroup)
{
    // A branch into the middle of a multi-instruction group.
    std::vector<Instruction> insts;
    Instruction movi1;
    movi1.op = Opcode::kMovi;
    movi1.dst = intReg(1);
    Instruction movi2 = movi1;
    movi2.dst = intReg(2);
    movi2.stop = true;
    Instruction br;
    br.op = Opcode::kBr;
    br.imm = 1; // not a leader: inst 1 is inside group [0,1]
    br.stop = true;
    Instruction halt;
    halt.op = Opcode::kHalt;
    halt.stop = true;
    insts = {movi1, movi2, br, halt};
    Program p("badbr", insts);
    EXPECT_NE(p.validate().find("not an issue-group leader"),
              std::string::npos);
}

TEST(ProgramValidate, RejectsBranchWithoutStop)
{
    std::vector<Instruction> insts;
    Instruction br;
    br.op = Opcode::kBr;
    br.imm = 0;
    br.stop = false; // branch must end its group
    Instruction halt;
    halt.op = Opcode::kHalt;
    halt.stop = true;
    insts = {br, halt};
    Program p("brnostop", insts);
    EXPECT_NE(p.validate().find("final slot"), std::string::npos);
}

TEST(ProgramValidate, RejectsIntraGroupRaw)
{
    ProgramBuilder b("raw", /*auto_stop=*/false);
    b.movi(intReg(1), 1);
    b.addi(intReg(2), intReg(1), 1); // reads r1 written in same group
    b.stop();
    b.halt();
    Program p = b.finalize();
    EXPECT_NE(p.validate().find("intra-group RAW"), std::string::npos);
}

TEST(ProgramValidate, RejectsIntraGroupWaw)
{
    ProgramBuilder b("waw", /*auto_stop=*/false);
    b.movi(intReg(1), 1);
    b.movi(intReg(1), 2);
    b.stop();
    b.halt();
    Program p = b.finalize();
    EXPECT_NE(p.validate().find("intra-group WAW"), std::string::npos);
}

TEST(ProgramValidate, AllowsIntraGroupWar)
{
    // Write-after-read in one group is legal EPIC semantics.
    ProgramBuilder b("war", /*auto_stop=*/false);
    b.movi(intReg(1), 1);
    b.stop();
    b.addi(intReg(2), intReg(1), 0); // read r1
    b.movi(intReg(1), 9);            // write r1, same group
    b.stop();
    b.halt();
    EXPECT_EQ(b.finalize().validate(), "");
}

TEST(ProgramValidate, RejectsHardwiredWrite)
{
    ProgramBuilder b("hw");
    b.movi(intReg(0), 1);
    b.halt();
    Program p = b.finalize();
    EXPECT_NE(p.validate().find("hardwired"), std::string::npos);
}

TEST(ProgramValidate, RejectsOversubscribedGroup)
{
    ProgramBuilder b("wide", /*auto_stop=*/false);
    // Six independent ALU writes in one group exceeds 5 ALU units.
    for (unsigned i = 1; i <= 6; ++i)
        b.movi(intReg(i), i);
    b.stop();
    b.halt();
    Program p = b.finalize();
    EXPECT_NE(p.validate().find("oversubscribes"), std::string::npos);
}

TEST(ProgramValidate, RejectsMemOpAfterStoreInGroup)
{
    ProgramBuilder b("memorder", /*auto_stop=*/false);
    b.movi(intReg(1), 0x1000);
    b.movi(intReg(2), 7);
    b.stop();
    b.st8(intReg(1), 0, intReg(2));
    b.ld8(intReg(3), intReg(1), 64); // load after store, same group
    b.stop();
    b.halt();
    Program p = b.finalize();
    EXPECT_NE(p.validate().find("follows a store"), std::string::npos);
}

TEST(ProgramValidate, RejectsNonPredQualifier)
{
    std::vector<Instruction> insts;
    Instruction add;
    add.op = Opcode::kAdd;
    add.dst = intReg(1);
    add.src1 = intReg(2);
    add.src2 = intReg(3);
    add.qpred = intReg(4); // wrong class
    add.stop = true;
    Instruction halt;
    halt.op = Opcode::kHalt;
    halt.stop = true;
    insts = {add, halt};
    Program p("badq", insts);
    EXPECT_NE(p.validate().find("not a "), std::string::npos);
}

} // namespace
