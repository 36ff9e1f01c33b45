/** @file Unit tests for the DynID-indexed ALAT. */

#include <gtest/gtest.h>

#include <vector>

#include "common/serialize.hh"
#include "memory/alat.hh"

namespace
{

using ff::memory::Alat;

constexpr ff::Addr kTop4 = 0xFFFF'FFFF'FFFF'FFFCULL; // 4 bytes below 2^64

/** Encodes @p a the way a model snapshot does. */
std::vector<std::uint8_t>
saved(const Alat &a)
{
    ff::serial::Writer w;
    a.save(w);
    return w.take();
}

TEST(Alat, AllocateCheckRemove)
{
    Alat a(0);
    a.allocate(1, 0x100, 8);
    EXPECT_TRUE(a.check(1));
    a.remove(1);
    EXPECT_FALSE(a.check(1));
    EXPECT_EQ(a.stats().allocations, 1u);
    EXPECT_EQ(a.stats().checksPassed, 1u);
    EXPECT_EQ(a.stats().checksFailed, 1u);
}

TEST(Alat, StoreInvalidatesOverlappingEntry)
{
    Alat a(0);
    a.allocate(1, 0x100, 8);
    a.invalidateOverlap(0x104, 8); // overlaps [0x100,0x108)
    EXPECT_FALSE(a.check(1));
    EXPECT_EQ(a.stats().storeInvalidations, 1u);
}

TEST(Alat, AdjacentStoreDoesNotInvalidate)
{
    Alat a(0);
    a.allocate(1, 0x100, 8);
    a.invalidateOverlap(0x108, 8); // starts exactly at the end
    a.invalidateOverlap(0x0F8, 8); // ends exactly at the start
    EXPECT_TRUE(a.check(1));
}

TEST(Alat, OneByteOverlapInvalidates)
{
    Alat a(0);
    a.allocate(1, 0x100, 8);
    a.invalidateOverlap(0x107, 1);
    EXPECT_FALSE(a.check(1));
}

TEST(Alat, StoreKillsAllOverlappingEntries)
{
    Alat a(0);
    a.allocate(1, 0x100, 8);
    a.allocate(2, 0x104, 8);
    a.allocate(3, 0x200, 8);
    a.invalidateOverlap(0x100, 16);
    EXPECT_FALSE(a.check(1));
    EXPECT_FALSE(a.check(2));
    EXPECT_TRUE(a.check(3));
    EXPECT_EQ(a.stats().storeInvalidations, 2u);
}

TEST(Alat, SquashYoungerThan)
{
    Alat a(0);
    a.allocate(1, 0x100, 8);
    a.allocate(5, 0x200, 8);
    a.allocate(9, 0x300, 8);
    a.squashYoungerThan(5);
    EXPECT_TRUE(a.check(1));
    EXPECT_TRUE(a.check(5));
    EXPECT_FALSE(a.check(9));
}

TEST(Alat, PerfectModeIsUnbounded)
{
    Alat a(0);
    for (ff::DynId id = 1; id <= 1000; ++id)
        a.allocate(id, id * 8, 8);
    EXPECT_EQ(a.liveEntries(), 1000u);
    EXPECT_EQ(a.stats().capacityEvictions, 0u);
    EXPECT_TRUE(a.check(1));
}

TEST(Alat, FiniteCapacityEvictsFifoOrder)
{
    Alat a(2);
    a.allocate(1, 0x100, 8);
    a.allocate(2, 0x200, 8);
    a.allocate(3, 0x300, 8); // evicts id 1
    EXPECT_EQ(a.liveEntries(), 2u);
    EXPECT_EQ(a.stats().capacityEvictions, 1u);
    EXPECT_FALSE(a.check(1)); // false positive: safe, slower
    EXPECT_TRUE(a.check(2));
    EXPECT_TRUE(a.check(3));
}

TEST(Alat, Clear)
{
    Alat a(0);
    a.allocate(1, 0x100, 8);
    a.clear();
    EXPECT_EQ(a.liveEntries(), 0u);
    EXPECT_FALSE(a.check(1));
}

TEST(Alat, ReallocationAfterRemove)
{
    Alat a(2);
    a.allocate(1, 0x100, 8);
    a.remove(1);
    a.allocate(2, 0x200, 8);
    a.allocate(3, 0x300, 8);
    // Only 2 live entries; no capacity eviction should have fired.
    EXPECT_EQ(a.stats().capacityEvictions, 0u);
    EXPECT_TRUE(a.check(2));
    EXPECT_TRUE(a.check(3));
}

TEST(Alat, WrappingStoreInvalidates)
{
    // An 8-byte store at 2^64 - 4 covers bytes 0..3 too, as
    // SparseMemory::write does.
    Alat a(0);
    a.allocate(1, 0, 4);
    a.invalidateOverlap(kTop4, 8);
    EXPECT_FALSE(a.check(1));

    // And the reverse: a wrapping load is hit by a store at 0.
    Alat b(0);
    b.allocate(1, kTop4, 8);
    b.invalidateOverlap(2, 1);
    EXPECT_FALSE(b.check(1));
    b.allocate(2, kTop4, 4);
    b.invalidateOverlap(0, 8); // ends below the entry
    EXPECT_TRUE(b.check(2));
}

TEST(Alat, EvictionSkipsReleasedSlots)
{
    Alat a(2);
    a.allocate(1, 0x100, 8);
    a.allocate(2, 0x200, 8);
    a.allocate(3, 0x300, 8); // evicts 1
    a.remove(2);             // released, still ahead of 3
    a.allocate(4, 0x400, 8); // reclaims 2; room for 4 without evicting
    EXPECT_EQ(a.stats().capacityEvictions, 1u);
    a.allocate(5, 0x500, 8); // evicts 3, the oldest live entry
    EXPECT_EQ(a.stats().capacityEvictions, 2u);
    EXPECT_EQ(a.liveEntries(), 2u);
    EXPECT_FALSE(a.check(3));
    EXPECT_TRUE(a.check(4));
    EXPECT_TRUE(a.check(5));
}

TEST(Alat, EvictionAfterTailSquash)
{
    Alat a(2);
    a.allocate(1, 0x100, 8);
    a.allocate(2, 0x200, 8);
    a.squashYoungerThan(1); // drops 2
    EXPECT_EQ(a.liveEntries(), 1u);
    a.allocate(3, 0x300, 8); // room again: no eviction
    EXPECT_EQ(a.stats().capacityEvictions, 0u);
    a.allocate(4, 0x400, 8); // evicts 1
    EXPECT_EQ(a.stats().capacityEvictions, 1u);
    EXPECT_FALSE(a.check(1));
    EXPECT_FALSE(a.check(2));
    EXPECT_TRUE(a.check(3));
    EXPECT_TRUE(a.check(4));
}

TEST(Alat, RoundTripKeepsEvictionOrder)
{
    Alat a(3);
    for (ff::DynId id = 1; id <= 5; ++id) // evicts 1 and 2
        a.allocate(id, id * 0x100, 8);
    a.remove(4); // a released slot between live 3 and 5
    const std::vector<std::uint8_t> bytes = saved(a);
    Alat b(3);
    ff::serial::Reader r(bytes);
    b.restore(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(saved(b), bytes);
    // Both fill the freed room with 6, then evict 3 for 7, then
    // reclaim 4 and evict 5 for 8.
    for (Alat *t : {&a, &b}) {
        t->allocate(6, 0x600, 8);
        t->allocate(7, 0x700, 8);
        t->allocate(8, 0x800, 8);
        EXPECT_EQ(t->stats().capacityEvictions, 4u);
        EXPECT_FALSE(t->check(3));
        EXPECT_FALSE(t->check(5));
        EXPECT_TRUE(t->check(6));
        EXPECT_TRUE(t->check(8));
    }
    EXPECT_EQ(saved(b), saved(a));
}

TEST(Alat, RestoreRejectsLiveEntryWithoutSlot)
{
    // A live entry whose id the allocation-order list does not hold.
    ff::serial::Writer w;
    w.u32(0);  // capacity
    w.u64(1);  // one live entry
    w.u64(7);
    w.u64(0x100);
    w.u32(8);
    w.u64(1);  // one slot, for another id
    w.u64(6);
    ff::memory::saveStats(w, {});
    Alat a(0);
    ff::serial::Reader r(w.buffer());
    a.restore(r);
    EXPECT_FALSE(r.ok());
}

} // namespace
