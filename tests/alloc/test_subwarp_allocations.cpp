/**
 * @file
 * Heap-allocation audit of the subwarp layer's hot paths.
 *
 * attackKey() calls SubwarpPartitioner::draw() and
 * estimateLastRoundAccesses() hundreds of thousands of times per key,
 * the SM calls Coalescer::coalesceInto() for every warp memory
 * instruction, and the serve scheduler calls countAccesses() for every
 * last-round lookup of every launch, so all four must stay off the
 * heap. The binary counts allocations through a replaced global
 * operator new (heap_counter.hpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc/heap_counter.hpp"
#include "rcoal/attack/correlation_attack.hpp"
#include "rcoal/core/coalescer.hpp"
#include "rcoal/core/partitioner.hpp"

namespace rcoal {
namespace {

using test::heapAllocations;
using test::keep;

TEST(SubwarpLayerAllocations, CounterSeesHeapAllocations)
{
    const std::size_t before = heapAllocations;
    std::vector<int> v(16);
    keep(v.data());
    EXPECT_GE(heapAllocations - before, 1u);
}

TEST(SubwarpLayerAllocations, RssRts8PartitionDrawIsAllocationFree)
{
    const core::SubwarpPartitioner partitioner(
        core::CoalescingPolicy::rss(8, true), 32);
    Rng rng(1);
    const std::size_t before = heapAllocations;
    for (int i = 0; i < 10000; ++i) {
        const core::SubwarpPartition partition = partitioner.draw(rng);
        keep(partition);
    }
    EXPECT_EQ(heapAllocations - before, 0u);
}

TEST(SubwarpLayerAllocations, RssRts8EstimateIsAllocationFree)
{
    attack::AttackConfig cfg;
    cfg.assumedPolicy = core::CoalescingPolicy::rss(8, true);
    const attack::CorrelationAttack attack(cfg);
    Rng rng(2);
    std::vector<aes::Block> lines(32);
    for (aes::Block &block : lines) {
        for (std::uint8_t &byte : block)
            byte = static_cast<std::uint8_t>(rng.below(256));
    }
    const std::size_t before = heapAllocations;
    double sum = 0.0;
    for (unsigned i = 0; i < 10000; ++i) {
        sum += attack.estimateLastRoundAccesses(
            lines, i % 16, static_cast<std::uint8_t>(i), rng);
    }
    keep(sum);
    EXPECT_EQ(heapAllocations - before, 0u);
    EXPECT_GT(sum, 0.0);
}

/** 16 warps of AES T-table lanes, each with its own RSS+RTS(8) draw. */
struct Warps
{
    explicit Warps(std::uint64_t seed)
    {
        const core::SubwarpPartitioner partitioner(
            core::CoalescingPolicy::rss(8, true), 32);
        Rng rng(seed);
        for (int w = 0; w < 16; ++w) {
            std::vector<core::LaneRequest> warp(32);
            for (ThreadId t = 0; t < 32; ++t)
                warp[t] = {t, 0x1c00 + rng.below(256) * 4, 4, true};
            lanes.push_back(std::move(warp));
            partitions.push_back(partitioner.draw(rng));
        }
    }

    std::vector<std::vector<core::LaneRequest>> lanes;
    std::vector<core::SubwarpPartition> partitions;
};

TEST(SubwarpLayerAllocations, RssRts8CoalesceIntoIsAllocationFree)
{
    const core::Coalescer coalescer(128);
    const Warps warps(3);
    // Warm the reused output vector up to the worst case, one access
    // per lane, as the SM's per-warp buffer is after a few launches.
    std::vector<core::CoalescedAccess> out;
    coalescer.coalesceInto(
        warps.lanes[0],
        core::SubwarpPartition::fromSizes(std::vector<unsigned>(32, 1)),
        out);
    const std::size_t before = heapAllocations;
    std::size_t accesses = 0;
    for (int i = 0; i < 10000; ++i) {
        coalescer.coalesceInto(warps.lanes[i % 16], warps.partitions[i % 16],
                               out);
        accesses += out.size();
    }
    keep(accesses);
    EXPECT_EQ(heapAllocations - before, 0u);
    EXPECT_GT(accesses, 0u);
}

TEST(SubwarpLayerAllocations, RssRts8CountAccessesIsAllocationFree)
{
    const core::Coalescer coalescer(128);
    const Warps warps(4);
    const std::size_t before = heapAllocations;
    unsigned accesses = 0;
    for (int i = 0; i < 10000; ++i) {
        accesses += coalescer.countAccesses(warps.lanes[i % 16],
                                            warps.partitions[i % 16]);
    }
    keep(accesses);
    EXPECT_EQ(heapAllocations - before, 0u);
    EXPECT_GT(accesses, 0u);
}

} // namespace
} // namespace rcoal
