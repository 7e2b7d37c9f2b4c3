/**
 * @file
 * Heap-allocation audit of the subwarp layer's hot paths.
 *
 * attackKey() calls SubwarpPartitioner::draw() and
 * estimateLastRoundAccesses() hundreds of thousands of times per key,
 * the SM calls Coalescer::coalesceInto() for every warp memory
 * instruction, and the serve scheduler calls countAccesses() for every
 * last-round lookup of every launch, so all four must stay off the
 * heap. This
 * executable replaces the global operator new with a counting one
 * (hence its own binary: the replacement is process-wide) and asserts
 * that none of them allocates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "rcoal/attack/correlation_attack.hpp"
#include "rcoal/core/coalescer.hpp"
#include "rcoal/core/partitioner.hpp"

namespace {

std::size_t heapAllocations = 0;

void *
countedAlloc(std::size_t size, std::size_t align)
{
    ++heapAllocations;
    size = size == 0 ? 1 : size;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align, (size + align - 1) / align *
                                                  align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace rcoal {
namespace {

/** Keeps a value observable so the measured calls cannot be elided. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

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
