/** @file Unit tests for the speculative store buffer. */

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "memory/store_buffer.hh"

namespace
{

using namespace ff;
using namespace ff::memory;

TEST(StoreBuffer, CapacityTracking)
{
    StoreBuffer sb(2);
    EXPECT_TRUE(sb.empty());
    sb.insert(1, 0x100, 8, 1);
    EXPECT_FALSE(sb.full());
    sb.insert(2, 0x108, 8, 2);
    EXPECT_TRUE(sb.full());
    EXPECT_EQ(sb.size(), 2u);
}

TEST(StoreBuffer, ForwardFullContainment)
{
    StoreBuffer sb(8);
    SparseMemory mem;
    sb.insert(1, 0x100, 8, 0xAABBCCDDEEFF0011ULL);
    bool fwd = false;
    EXPECT_EQ(sb.read(5, 0x100, 8, mem, &fwd),
              0xAABBCCDDEEFF0011ULL);
    EXPECT_TRUE(fwd);
}

TEST(StoreBuffer, ForwardSubsetOfStore)
{
    StoreBuffer sb(8);
    SparseMemory mem;
    sb.insert(1, 0x100, 8, 0x1122334455667788ULL);
    // A 4-byte load from the middle of the stored range.
    EXPECT_EQ(sb.read(5, 0x102, 4, mem, nullptr), 0x33445566u);
}

TEST(StoreBuffer, ComposesMultipleStoresAndMemory)
{
    StoreBuffer sb(8);
    SparseMemory mem;
    mem.write64(0x100, 0xFFFFFFFFFFFFFFFFULL);
    sb.insert(1, 0x100, 4, 0x44332211);
    sb.insert(2, 0x104, 2, 0x6655);
    // 8-byte load: bytes 0-3 from store 1, 4-5 from store 2,
    // 6-7 from memory.
    EXPECT_EQ(sb.read(9, 0x100, 8, mem, nullptr),
              0xFFFF665544332211ULL);
}

TEST(StoreBuffer, YoungerOfTwoOverlappingStoresWins)
{
    StoreBuffer sb(8);
    SparseMemory mem;
    sb.insert(1, 0x100, 8, 0x1111111111111111ULL);
    sb.insert(2, 0x100, 8, 0x2222222222222222ULL);
    EXPECT_EQ(sb.read(9, 0x100, 8, mem, nullptr),
              0x2222222222222222ULL);
}

TEST(StoreBuffer, EntriesNotOlderThanLoadAreIgnored)
{
    StoreBuffer sb(8);
    SparseMemory mem;
    mem.write64(0x100, 7);
    sb.insert(10, 0x100, 8, 99);
    bool fwd = true;
    // The load (id 5) is older than the store (id 10).
    EXPECT_EQ(sb.read(5, 0x100, 8, mem, &fwd), 7u);
    EXPECT_FALSE(fwd);
}

TEST(StoreBuffer, CommitOldestWritesMemoryInOrder)
{
    StoreBuffer sb(8);
    SparseMemory mem;
    sb.insert(1, 0x100, 8, 11);
    sb.insert(2, 0x108, 4, 22);
    sb.commitOldest(1, mem);
    EXPECT_EQ(mem.read64(0x100), 11u);
    EXPECT_EQ(sb.size(), 1u);
    sb.commitOldest(2, mem);
    EXPECT_EQ(mem.read32(0x108), 22u);
    EXPECT_TRUE(sb.empty());
}

TEST(StoreBuffer, SquashYoungerThan)
{
    StoreBuffer sb(8);
    sb.insert(1, 0x100, 8, 1);
    sb.insert(5, 0x108, 8, 5);
    sb.insert(9, 0x110, 8, 9);
    sb.squashYoungerThan(5);
    EXPECT_EQ(sb.size(), 2u);
    EXPECT_EQ(sb.entries().back().id, 5u);
}

TEST(StoreBuffer, ForwardsAcrossAddressWrap)
{
    constexpr Addr kTop4 = 0xFFFF'FFFF'FFFF'FFFCULL; // 2^64 - 4
    StoreBuffer sb(8);
    SparseMemory mem;
    mem.write32(kTop4, 0x11223344);
    // An 8-byte load at 2^64 - 4 reads four bytes below 2^64 and four
    // from address 0, where the store forwards.
    sb.insert(1, 0, 4, 0xAABBCCDD);
    bool fwd = false;
    EXPECT_EQ(sb.read(5, kTop4, 8, mem, &fwd), 0xAABBCCDD11223344ULL);
    EXPECT_TRUE(fwd);
}

TEST(StoreBuffer, WrappingStoreForwards)
{
    // An 8-byte store at 2^64 - 4 covers addresses 0..3 too, as
    // SparseMemory::write does.
    StoreBuffer sb(8);
    SparseMemory mem;
    sb.insert(1, 0xFFFF'FFFF'FFFF'FFFCULL, 8, 0x0102030405060708ULL);
    bool fwd = false;
    EXPECT_EQ(sb.read(5, 0, 4, mem, &fwd), 0x01020304u);
    EXPECT_TRUE(fwd);
    EXPECT_EQ(sb.read(5, 4, 4, mem, &fwd), 0u);
    EXPECT_FALSE(fwd);
}

TEST(StoreBuffer, RingWrapsPastCapacity)
{
    // Commit and insert in lockstep so the ring's head passes its
    // capacity several times; forwarding must always see the youngest
    // older store.
    StoreBuffer sb(3);
    SparseMemory mem;
    DynId next = 1;
    for (int i = 0; i < 3; ++i, ++next)
        sb.insert(next, 0x100, 8, next);
    for (int round = 0; round < 20; ++round, ++next) {
        sb.commitOldest(next - 3, mem);
        EXPECT_EQ(mem.read64(0x100), next - 3);
        sb.insert(next, 0x100, 8, next);
        ASSERT_TRUE(sb.full());
        EXPECT_EQ(sb.entries().front().id, next - 2);
        EXPECT_EQ(sb.read(next + 1, 0x100, 8, mem, nullptr), next);
        EXPECT_EQ(sb.read(next, 0x100, 8, mem, nullptr), next - 1);
    }
}

TEST(StoreBuffer, RestoreRejectsMoreEntriesThanCapacity)
{
    // A stream naming this buffer's capacity but holding more entries
    // than fit is corrupt.
    serial::Writer w;
    w.u64(2); // capacity
    w.u64(3); // entries
    for (DynId id = 1; id <= 3; ++id) {
        w.u64(id);
        w.u64(0x100 * id);
        w.u32(8);
        w.u64(id);
    }
    StoreBuffer sb(2);
    serial::Reader r(w.buffer());
    sb.restore(r);
    EXPECT_FALSE(r.ok());
}

TEST(StoreBuffer, ClearEmpties)
{
    StoreBuffer sb(4);
    sb.insert(1, 0x100, 8, 1);
    sb.clear();
    EXPECT_TRUE(sb.empty());
}

TEST(StoreBufferDeathTest, OverflowPanics)
{
    StoreBuffer sb(1);
    sb.insert(1, 0x100, 8, 1);
    EXPECT_DEATH(sb.insert(2, 0x108, 8, 2), "overflow");
}

TEST(StoreBufferDeathTest, OutOfOrderInsertPanics)
{
    StoreBuffer sb(4);
    sb.insert(5, 0x100, 8, 1);
    EXPECT_DEATH(sb.insert(3, 0x108, 8, 2), "out of order");
}

TEST(StoreBufferDeathTest, CommitOrderViolationPanics)
{
    StoreBuffer sb(4);
    SparseMemory mem;
    sb.insert(1, 0x100, 8, 1);
    sb.insert(2, 0x108, 8, 2);
    EXPECT_DEATH(sb.commitOldest(2, mem), "order violation");
}

TEST(StoreBufferDeathTest, CommitFromEmptyPanics)
{
    StoreBuffer sb(4);
    SparseMemory mem;
    EXPECT_DEATH(sb.commitOldest(1, mem), "empty store buffer");
}

} // namespace
