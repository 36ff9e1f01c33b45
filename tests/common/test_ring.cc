/** @file Unit tests for the Ring FIFO behind the per-cycle queues. */

#include <gtest/gtest.h>

#include "common/ring.hh"

namespace
{

using ff::Ring;

TEST(Ring, WrapsPastCapacityInOrder)
{
    Ring<int> r(3); // rounds up to 4 slots
    int next_in = 0;
    int next_out = 0;
    for (int i = 0; i < 3; ++i)
        r.emplace_back(next_in++);
    // Steady state: the head runs round the array many times.
    for (int step = 0; step < 50; ++step) {
        ASSERT_EQ(r.front(), next_out);
        r.pop_front();
        ++next_out;
        r.emplace_back(next_in++);
        ASSERT_EQ(r.size(), 3u);
        EXPECT_EQ(r.back(), next_in - 1);
        for (std::size_t k = 0; k < r.size(); ++k)
            EXPECT_EQ(r[k], next_out + static_cast<int>(k));
    }
}

TEST(Ring, GrowsKeepingOrderFromAnyHead)
{
    Ring<int> r(4);
    for (int i = 0; i < 3; ++i)
        r.emplace_back(i);
    r.pop_front();
    r.pop_front(); // head now mid-array
    for (int i = 3; i < 40; ++i)
        r.emplace_back(i); // grows from 4 to 64 slots
    ASSERT_EQ(r.size(), 38u);
    for (std::size_t k = 0; k < r.size(); ++k)
        EXPECT_EQ(r[k], static_cast<int>(k) + 2);
}

TEST(Ring, EmplaceBackKeepsOrderAcrossWrapAndGrowth)
{
    struct Item
    {
        int seq;
        long twice;
    };
    Ring<Item> r(4);
    int next_in = 0;
    int next_out = 0;
    auto push = [&] {
        const Item &it = r.emplace_back(next_in, 2L * next_in);
        EXPECT_EQ(it.seq, next_in); // built in the slot it returns
        ++next_in;
    };
    auto pop = [&] {
        r.pop_front();
        ++next_out;
    };
    auto expectInOrder = [&] {
        ASSERT_EQ(r.size(), static_cast<std::size_t>(next_in - next_out));
        for (std::size_t k = 0; k < r.size(); ++k) {
            EXPECT_EQ(r[k].seq, next_out + static_cast<int>(k));
            EXPECT_EQ(r[k].twice, 2L * r[k].seq);
        }
    };
    // Head mid-array, then past 4 slots: the copy unwraps into 8.
    for (int i = 0; i < 3; ++i)
        push();
    pop();
    pop();
    for (int i = 0; i < 5; ++i)
        push(); // 6 held: grows to 8 slots
    expectInOrder();
    pop();
    pop();
    pop();
    for (int i = 0; i < 8; ++i)
        push(); // 11 held: grows to 16 slots
    expectInOrder();
    // Steady state at 11 of 16: the head runs round the grown array,
    // which only an index masked by 15 (not 3 or 7) keeps in order.
    for (int step = 0; step < 40; ++step) {
        pop();
        push();
        expectInOrder();
    }
}

TEST(Ring, PopBackAndClear)
{
    Ring<int> r; // no slots until the first push
    EXPECT_TRUE(r.empty());
    for (int i = 0; i < 5; ++i)
        r.emplace_back(i);
    r.pop_back();
    EXPECT_EQ(r.back(), 3);
    EXPECT_EQ(r.size(), 4u);
    r.clear();
    EXPECT_TRUE(r.empty());
    r.emplace_back(9);
    EXPECT_EQ(r.front(), 9);
}

} // namespace
