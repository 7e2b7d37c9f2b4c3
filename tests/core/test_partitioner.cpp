/**
 * @file
 * Unit and property tests for SubwarpPartitioner - the sampling heart of
 * FSS, RSS and RTS.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "rcoal/common/logging.hpp"
#include "rcoal/core/partitioner.hpp"

namespace rcoal::core {
namespace {

TEST(Partitioner, BaselineIsSingleSubwarp)
{
    SubwarpPartitioner p(CoalescingPolicy::baseline(), 32);
    Rng rng(1);
    const auto part = p.draw(rng);
    EXPECT_EQ(part.numSubwarps(), 1u);
    EXPECT_EQ(part.warpSize(), 32u);
}

TEST(Partitioner, DisabledIsOneThreadPerSubwarp)
{
    SubwarpPartitioner p(CoalescingPolicy::disabled(), 32);
    Rng rng(2);
    const auto part = p.draw(rng);
    EXPECT_EQ(part.numSubwarps(), 32u);
    for (unsigned s : part.sizes())
        EXPECT_EQ(s, 1u);
}

TEST(Partitioner, FssSizesEvenSplit)
{
    SubwarpPartitioner p(CoalescingPolicy::fss(8), 32);
    Rng rng(0);
    EXPECT_EQ(p.draw(rng).sizes(), std::vector<unsigned>(8, 4));
}

TEST(Partitioner, FssSizesWithRemainder)
{
    SubwarpPartitioner p(CoalescingPolicy::fss(5), 32);
    Rng rng(0);
    const auto sizes = p.draw(rng).sizes();
    // 32 = 7+7+6+6+6.
    EXPECT_EQ(sizes, (std::vector<unsigned>{7, 7, 6, 6, 6}));
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0u), 32u);
}

TEST(Partitioner, FssIsDeterministicAndInOrder)
{
    SubwarpPartitioner p(CoalescingPolicy::fss(4), 32);
    Rng rng(3);
    const auto a = p.draw(rng);
    const auto b = p.draw(rng);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(a.isInOrder());
    EXPECT_EQ(a.sizes(), std::vector<unsigned>(4, 8));
}

TEST(Partitioner, FssRtsShufflesThreadsButKeepsSizes)
{
    SubwarpPartitioner p(CoalescingPolicy::fss(4, true), 32);
    Rng rng(4);
    bool saw_out_of_order = false;
    for (int trial = 0; trial < 20; ++trial) {
        const auto part = p.draw(rng);
        EXPECT_EQ(part.sizes(), std::vector<unsigned>(4, 8));
        saw_out_of_order |= !part.isInOrder();
    }
    EXPECT_TRUE(saw_out_of_order);
}

TEST(Partitioner, RtsMappingIsUniformPerThread)
{
    // Under FSS+RTS with M=2 every thread should land in subwarp 0
    // about half the time.
    SubwarpPartitioner p(CoalescingPolicy::fss(2, true), 8);
    Rng rng(5);
    std::array<int, 8> in_zero{};
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
        const auto part = p.draw(rng);
        for (ThreadId t = 0; t < 8; ++t) {
            if (part.subwarpOf(t) == 0)
                ++in_zero[t];
        }
    }
    for (int count : in_zero)
        EXPECT_NEAR(count, kDraws / 2.0, kDraws / 2.0 * 0.05);
}

TEST(Partitioner, SkewedSizesFormValidCompositions)
{
    SubwarpPartitioner p(CoalescingPolicy::rss(4), 32);
    Rng rng(6);
    for (int trial = 0; trial < 500; ++trial) {
        const auto sizes = p.draw(rng).sizes();
        ASSERT_EQ(sizes.size(), 4u);
        unsigned sum = 0;
        for (unsigned s : sizes) {
            EXPECT_GE(s, 1u);
            sum += s;
        }
        EXPECT_EQ(sum, 32u);
    }
}

TEST(Partitioner, SkewedSizesAreUniformOverCompositions)
{
    // N=5, M=2: compositions (1,4),(2,3),(3,2),(4,1) each w.p. 1/4.
    SubwarpPartitioner p(CoalescingPolicy::rss(2), 5);
    Rng rng(7);
    std::map<std::vector<unsigned>, int> counts;
    constexpr int kDraws = 40000;
    for (int i = 0; i < kDraws; ++i)
        ++counts[p.draw(rng).sizes()];
    EXPECT_EQ(counts.size(), 4u);
    for (const auto &[sizes, count] : counts)
        EXPECT_NEAR(count, kDraws / 4.0, kDraws / 4.0 * 0.07);
}

TEST(Partitioner, SkewedSizesProduceFullSizeRange)
{
    // The skewed distribution must make very large subwarps possible
    // (Fig. 9: sizes up to N - M + 1).
    SubwarpPartitioner p(CoalescingPolicy::rss(4), 32);
    Rng rng(8);
    unsigned max_seen = 0;
    for (int i = 0; i < 5000; ++i) {
        for (unsigned s : p.draw(rng).sizes())
            max_seen = std::max(max_seen, s);
    }
    EXPECT_GE(max_seen, 25u);
}

TEST(Partitioner, NormalSizesConcentrateAroundMean)
{
    auto policy = CoalescingPolicy::rss(4, false, RssSizing::Normal);
    policy.normalSigma = 1.0;
    SubwarpPartitioner p(policy, 32);
    Rng rng(9);
    double sum = 0.0;
    unsigned max_seen = 0;
    constexpr int kDraws = 5000;
    for (int i = 0; i < kDraws; ++i) {
        const auto sizes = p.draw(rng).sizes();
        unsigned total = 0;
        for (unsigned s : sizes) {
            EXPECT_GE(s, 1u);
            total += s;
            max_seen = std::max(max_seen, s);
            sum += s;
        }
        EXPECT_EQ(total, 32u);
    }
    EXPECT_NEAR(sum / (kDraws * 4), 8.0, 0.05);
    // Unlike the skewed distribution, sizes stay near N/M = 8.
    EXPECT_LT(max_seen, 16u);
}

TEST(Partitioner, RssDrawsVaryBetweenLaunches)
{
    SubwarpPartitioner p(CoalescingPolicy::rss(4), 32);
    Rng rng(10);
    std::set<std::vector<unsigned>> distinct;
    for (int i = 0; i < 50; ++i)
        distinct.insert(p.draw(rng).sizes());
    EXPECT_GT(distinct.size(), 10u);
}

TEST(Partitioner, RssWithoutRtsKeepsThreadsInOrder)
{
    SubwarpPartitioner p(CoalescingPolicy::rss(4), 32);
    Rng rng(11);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(p.draw(rng).isInOrder());
}

TEST(Partitioner, RssRtsShufflesThreads)
{
    SubwarpPartitioner p(CoalescingPolicy::rss(4, true), 32);
    Rng rng(12);
    bool saw_out_of_order = false;
    for (int i = 0; i < 50; ++i)
        saw_out_of_order |= !p.draw(rng).isInOrder();
    EXPECT_TRUE(saw_out_of_order);
}

TEST(Partitioner, SameSeedSameDrawSequence)
{
    SubwarpPartitioner p(CoalescingPolicy::rss(8, true), 32);
    Rng a(13);
    Rng b(13);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(p.draw(a), p.draw(b));
}

TEST(Partitioner, SubwarpCountEqualsWarpSizeDegeneratesToDisabled)
{
    SubwarpPartitioner fss32(CoalescingPolicy::fss(32), 32);
    Rng rng(14);
    const auto part = fss32.draw(rng);
    for (unsigned s : part.sizes())
        EXPECT_EQ(s, 1u);
}

TEST(PartitionerDeathTest, RejectsWarpWiderThanPartitionCapacity)
{
    // GpuConfig caps warpSize at the same 32.
    EXPECT_DEATH(SubwarpPartitioner(CoalescingPolicy::rss(8, true), 64),
                 "exceeds the inline partition capacity");
}

/** Parameterized sweep: every (mechanism, M) draw is a valid partition. */
class PartitionerSweep
    : public testing::TestWithParam<std::tuple<unsigned, bool, bool>>
{
};

TEST_P(PartitionerSweep, DrawsAreAlwaysValid)
{
    const auto [m, rss, rts] = GetParam();
    const auto policy = rss ? CoalescingPolicy::rss(m, rts)
                            : CoalescingPolicy::fss(m, rts);
    SubwarpPartitioner p(policy, 32);
    Rng rng(15 + m);
    for (int trial = 0; trial < 100; ++trial) {
        const auto part = p.draw(rng);
        part.validate(); // panics on violation
        EXPECT_EQ(part.warpSize(), 32u);
        EXPECT_EQ(part.numSubwarps(), m);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, PartitionerSweep,
    testing::Combine(testing::Values(1u, 2u, 4u, 8u, 16u, 32u),
                     testing::Bool(), testing::Bool()),
    [](const auto &info) {
        return strprintf("M%u_%s%s", std::get<0>(info.param),
                         std::get<1>(info.param) ? "RSS" : "FSS",
                         std::get<2>(info.param) ? "_RTS" : "");
    });

} // namespace
} // namespace rcoal::core
