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
        r.push_back(next_in++);
    // Steady state: the head runs round the array many times.
    for (int step = 0; step < 50; ++step) {
        ASSERT_EQ(r.front(), next_out);
        r.pop_front();
        ++next_out;
        r.push_back(next_in++);
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
        r.push_back(i);
    r.pop_front();
    r.pop_front(); // head now mid-array
    for (int i = 3; i < 40; ++i)
        r.push_back(i); // grows from 4 to 64 slots
    ASSERT_EQ(r.size(), 38u);
    for (std::size_t k = 0; k < r.size(); ++k)
        EXPECT_EQ(r[k], static_cast<int>(k) + 2);
}

TEST(Ring, PopBackAndClear)
{
    Ring<int> r; // no slots until the first push
    EXPECT_TRUE(r.empty());
    for (int i = 0; i < 5; ++i)
        r.push_back(i);
    r.pop_back();
    EXPECT_EQ(r.back(), 3);
    EXPECT_EQ(r.size(), 4u);
    r.clear();
    EXPECT_TRUE(r.empty());
    r.push_back(9);
    EXPECT_EQ(r.front(), 9);
}

} // namespace
