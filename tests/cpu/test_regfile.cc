/** @file Unit tests for the register file and slot mapping. */

#include <gtest/gtest.h>

#include "cpu/regfile.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;
using namespace ff::isa;

TEST(RegSlot, DenseAndDisjoint)
{
    EXPECT_EQ(regSlot(intReg(0)), 0);
    EXPECT_EQ(regSlot(intReg(63)), 63);
    EXPECT_EQ(regSlot(fpReg(0)), 64);
    EXPECT_EQ(regSlot(predReg(0)), 128);
    EXPECT_EQ(regSlot(predReg(63)), 191);
    EXPECT_EQ(regSlot(noReg()), -1);
}

TEST(RegSlot, RoundTripsThroughSlotReg)
{
    for (unsigned s = 0; s < kNumRegSlots; ++s)
        EXPECT_EQ(regSlot(slotReg(s)), static_cast<int>(s));
}

TEST(RegFile, StartsZeroed)
{
    RegFile rf;
    EXPECT_EQ(rf.read(intReg(5)), 0u);
    EXPECT_EQ(rf.read(fpReg(5)), 0u);
    EXPECT_FALSE(rf.readPred(predReg(5)));
}

TEST(RegFile, ReadWriteRoundTrip)
{
    RegFile rf;
    rf.write(intReg(3), 0xDEAD);
    EXPECT_EQ(rf.read(intReg(3)), 0xDEADu);
    rf.write(fpReg(3), 0xBEEF);
    EXPECT_EQ(rf.read(fpReg(3)), 0xBEEFu);
    // Same index, different class: independent.
    EXPECT_EQ(rf.read(intReg(3)), 0xDEADu);
}

TEST(RegFile, HardwiredReads)
{
    RegFile rf;
    EXPECT_EQ(rf.read(intReg(0)), 0u);
    EXPECT_EQ(rf.read(fpReg(0)), 0u); // +0.0 bit pattern
    EXPECT_EQ(rf.read(predReg(0)), 1u);
    EXPECT_TRUE(rf.readPred(predReg(0)));
}

TEST(RegFile, HardwiredWritesIgnored)
{
    RegFile rf;
    rf.write(intReg(0), 99);
    rf.write(predReg(0), 0);
    EXPECT_EQ(rf.read(intReg(0)), 0u);
    EXPECT_TRUE(rf.readPred(predReg(0)));
}

TEST(RegFile, PredicateWritesNormalize)
{
    RegFile rf;
    rf.write(predReg(4), 0xFF00);
    EXPECT_EQ(rf.read(predReg(4)), 1u);
    rf.write(predReg(4), 0);
    EXPECT_EQ(rf.read(predReg(4)), 0u);
}

TEST(RegFile, FingerprintTracksContent)
{
    RegFile a, b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    a.write(intReg(7), 1);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b.write(intReg(7), 1);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    // Same value in a different register: different fingerprint.
    RegFile c;
    c.write(intReg(8), 1);
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(RegFile, SlotAccessors)
{
    RegFile rf;
    rf.write(regSlot(intReg(9)), 1234);
    EXPECT_EQ(rf.read(intReg(9)), 1234u);
    EXPECT_EQ(rf.read(regSlot(intReg(9))), 1234u);
}

TEST(RegFile, Reset)
{
    RegFile rf;
    rf.write(intReg(9), 5);
    rf.reset();
    EXPECT_EQ(rf.read(intReg(9)), 0u);
}

} // namespace
