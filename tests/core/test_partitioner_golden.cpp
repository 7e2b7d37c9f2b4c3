/**
 * @file
 * Golden digests of SubwarpPartitioner::draw() for every policy cell.
 *
 * The simulator and the defense-aware attacker both consume draw()'s
 * sids, and the attacker's correlation tables depend on the exact RNG
 * call order inside it. One FNV-1a digest per cell pins the sids of
 * 1000 consecutive draws plus the generator state left behind.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "rcoal/core/partitioner.hpp"
#include "support/fnv.hpp"

namespace rcoal::core {
namespace {

struct GoldenCell
{
    const char *name;
    CoalescingPolicy policy;
    std::uint64_t digest;
};

CoalescingPolicy
disabledRts()
{
    CoalescingPolicy policy = CoalescingPolicy::disabled();
    policy.randomThreads = true;
    return policy;
}

std::uint64_t
drawDigest(const CoalescingPolicy &policy, std::uint64_t seed)
{
    const SubwarpPartitioner partitioner(policy, 32);
    Rng rng(seed);
    test::Fnv h;
    for (int i = 0; i < 1000; ++i) {
        const SubwarpPartition part = partitioner.draw(rng);
        h.u64(part.numSubwarps());
        for (ThreadId t = 0; t < part.warpSize(); ++t)
            h.u64(part.subwarpOf(t));
    }
    h.u64(rng.next64());
    return h.value();
}

TEST(PartitionerGolden, DrawSidsPerPolicyCell)
{
    const GoldenCell cells[] = {
        {"baseline", CoalescingPolicy::baseline(), 0x390a896e043cbbf9ull},
        {"disabled", CoalescingPolicy::disabled(), 0xd8b3a7c8cacabe82ull},
        {"disabled+rts", disabledRts(), 0xc0cede144d96adb3ull},
        {"fss8", CoalescingPolicy::fss(8), 0x45dea3dc1ee55545ull},
        {"fss8+rts", CoalescingPolicy::fss(8, true), 0x980d4f5761d2b707ull},
        {"rss8-skewed", CoalescingPolicy::rss(8), 0xc765761755d5ba3cull},
        {"rss8-skewed+rts", CoalescingPolicy::rss(8, true),
         0x737b08e6979e89feull},
        {"rss8-normal", CoalescingPolicy::rss(8, false, RssSizing::Normal),
         0xbbc883fa73802b2eull},
        {"rss8-normal+rts", CoalescingPolicy::rss(8, true, RssSizing::Normal),
         0x6fde5754829daf7eull},
    };
    std::uint64_t seed = 1;
    for (const GoldenCell &cell : cells) {
        const std::uint64_t digest = drawDigest(cell.policy, seed++);
        EXPECT_EQ(digest, cell.digest)
            << cell.name << ": 0x" << std::hex << digest;
    }
}

} // namespace
} // namespace rcoal::core
