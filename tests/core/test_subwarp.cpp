/**
 * @file
 * Unit tests for SubwarpPartition.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "rcoal/core/subwarp.hpp"

namespace rcoal::core {
namespace {

TEST(SubwarpPartition, SingleSubwarp)
{
    const auto p = SubwarpPartition::single(32);
    EXPECT_EQ(p.warpSize(), 32u);
    EXPECT_EQ(p.numSubwarps(), 1u);
    EXPECT_TRUE(p.isInOrder());
    for (ThreadId t = 0; t < 32; ++t)
        EXPECT_EQ(p.subwarpOf(t), 0u);
    EXPECT_EQ(p.threadsOf(0).size(), 32u);
    EXPECT_EQ(p.sizes(), std::vector<unsigned>{32});
}

TEST(SubwarpPartition, FromSizesInOrder)
{
    const auto p = SubwarpPartition::fromSizes({2, 3, 1});
    EXPECT_EQ(p.warpSize(), 6u);
    EXPECT_EQ(p.numSubwarps(), 3u);
    EXPECT_TRUE(p.isInOrder());
    EXPECT_EQ(p.subwarpOf(0), 0u);
    EXPECT_EQ(p.subwarpOf(1), 0u);
    EXPECT_EQ(p.subwarpOf(2), 1u);
    EXPECT_EQ(p.subwarpOf(4), 1u);
    EXPECT_EQ(p.subwarpOf(5), 2u);
    EXPECT_EQ(p.sizes(), (std::vector<unsigned>{2, 3, 1}));
}

TEST(SubwarpPartition, ThreadsOfReturnsSortedTids)
{
    const SubwarpPartition p({1, 0, 1, 0}, 2);
    EXPECT_EQ(p.threadsOf(0), (std::vector<ThreadId>{1, 3}));
    EXPECT_EQ(p.threadsOf(1), (std::vector<ThreadId>{0, 2}));
    EXPECT_FALSE(p.isInOrder());
}

TEST(SubwarpPartition, SizesSumToWarpSize)
{
    const SubwarpPartition p({0, 1, 2, 1, 0, 2, 2, 1}, 3);
    const auto sizes = p.sizes();
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0u),
              p.warpSize());
}

TEST(SubwarpPartitionDeathTest, EmptySubwarpRejected)
{
    // Subwarp 1 has no threads.
    EXPECT_DEATH(SubwarpPartition({0, 0, 2, 2}, 3), "empty");
}

TEST(SubwarpPartitionDeathTest, SidOutOfRangeRejected)
{
    EXPECT_DEATH(SubwarpPartition({0, 5}, 2), "out of range");
}

TEST(SubwarpPartitionDeathTest, EmptyWarpRejected)
{
    EXPECT_DEATH(SubwarpPartition({}, 1), "empty partition");
}

TEST(SubwarpPartitionDeathTest, WarpWiderThanCapacityRejected)
{
    EXPECT_DEATH(SubwarpPartition::single(SubwarpPartition::kMaxThreads + 1),
                 "exceeds the inline capacity");
}

TEST(SubwarpPartition, EqualityComparison)
{
    const SubwarpPartition a({0, 1}, 2);
    const SubwarpPartition b({0, 1}, 2);
    const SubwarpPartition c({1, 0}, 2);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

} // namespace
} // namespace rcoal::core
