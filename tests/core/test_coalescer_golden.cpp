/**
 * @file
 * Golden digests of Coalescer::coalesceInto() and countAccesses().
 *
 * The simulator turns every coalesced access into one PRT/crossbar/DRAM
 * transaction in emission order, and the PRT releases lanes in list
 * order, so the exact output (block, sid, lanes in order) is part of
 * the simulated timing. Each cell folds the outputs of many warp
 * instructions into one FNV-1a digest: access count, then per access
 * its block address, sid and lane list, then countAccesses().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "rcoal/core/coalescer.hpp"
#include "rcoal/core/partitioner.hpp"
#include "support/fnv.hpp"

namespace rcoal::core {
namespace {

constexpr unsigned kWarp = 32;

/** Base of the four 1 KiB T-tables, laid out as the AES kernel does. */
Addr
tTableAddr(unsigned table, std::uint8_t index)
{
    return 0x1000 + Addr{table} * 1024 + Addr{index} * 4;
}

/** One warp's last-round-style lookups: lane t reads a random T4 entry. */
std::vector<LaneRequest>
tTableLanes(Rng &rng)
{
    std::vector<LaneRequest> lanes(kWarp);
    for (ThreadId t = 0; t < kWarp; ++t) {
        const auto index = static_cast<std::uint8_t>(rng.below(256));
        lanes[t] = {t, tTableAddr(3, index), 4, true};
    }
    return lanes;
}

/** Fold one coalesce of @p lanes under @p partition into @p h. */
void
foldCoalesce(test::Fnv &h, const Coalescer &coalescer,
             const std::vector<LaneRequest> &lanes,
             const SubwarpPartition &partition,
             std::vector<CoalescedAccess> &out)
{
    coalescer.coalesceInto(lanes, partition, out);
    h.u64(out.size());
    for (const CoalescedAccess &access : out) {
        h.u64(access.blockAddr);
        h.u64(access.sid);
        h.u64(access.threads.size());
        for (const ThreadId tid : access.threads)
            h.u64(tid);
    }
    h.u64(coalescer.countAccesses(lanes, partition));
}

/**
 * Digest of @p reps warps: each draws a partition under @p policy, then
 * builds its lanes with @p make_lanes, both from one RNG stream.
 */
std::uint64_t
digest(const CoalescingPolicy &policy, std::uint32_t block_bytes,
       std::uint64_t seed, int reps,
       const std::function<std::vector<LaneRequest>(Rng &)> &make_lanes)
{
    const SubwarpPartitioner partitioner(policy, kWarp);
    const Coalescer coalescer(block_bytes);
    Rng rng(seed);
    std::vector<CoalescedAccess> out; // Reused, as the SM does.
    test::Fnv h;
    for (int i = 0; i < reps; ++i) {
        const SubwarpPartition partition = partitioner.draw(rng);
        foldCoalesce(h, coalescer, make_lanes(rng), partition, out);
    }
    return h.value();
}

struct GoldenCell
{
    const char *name;
    std::uint64_t actual;
    std::uint64_t expected;
};

void
expectCells(std::initializer_list<GoldenCell> cells)
{
    for (const GoldenCell &cell : cells) {
        EXPECT_EQ(cell.actual, cell.expected)
            << cell.name << ": 0x" << std::hex << cell.actual;
    }
}

TEST(CoalescerGolden, AesTTableLanesPerPolicy)
{
    expectCells({
        {"base",
         digest(CoalescingPolicy::baseline(), 128, 1, 500, tTableLanes),
         0xf91063c5e82f6524ull},
        {"fss8+rts",
         digest(CoalescingPolicy::fss(8, true), 128, 2, 500, tTableLanes),
         0xcb92d8187d8abeecull},
        {"rss8", digest(CoalescingPolicy::rss(8), 128, 3, 500, tTableLanes),
         0xe5d7d911700093a6ull},
        {"rss8+rts",
         digest(CoalescingPolicy::rss(8, true), 128, 4, 500, tTableLanes),
         0xfe7c51d16ed4cccdull},
    });
}

TEST(CoalescerGolden, ShuffledTidOrderAndInactiveLanes)
{
    // Requests arrive in a random tid order: per-access lane lists keep
    // request order, not tid order.
    const auto shuffled = [](Rng &rng) {
        std::vector<LaneRequest> lanes = tTableLanes(rng);
        rng.shuffle(lanes);
        return lanes;
    };
    // About a quarter of the lanes are masked off by divergence.
    const auto inactive = [](Rng &rng) {
        std::vector<LaneRequest> lanes = tTableLanes(rng);
        for (LaneRequest &lane : lanes)
            lane.active = rng.below(4) != 0;
        return lanes;
    };
    expectCells({
        {"shuffled rss8+rts",
         digest(CoalescingPolicy::rss(8, true), 128, 5, 500, shuffled),
         0x8b01b8b05d7a2e2full},
        {"inactive rss8+rts",
         digest(CoalescingPolicy::rss(8, true), 128, 6, 500, inactive),
         0xb64ce8ce0dd24d29ull},
        {"inactive base",
         digest(CoalescingPolicy::baseline(), 128, 7, 500, inactive),
         0xa48292241632e4bbull},
    });
}

TEST(CoalescerGolden, StraddlingRequestsAnd64ByteBlocks)
{
    // 8-byte requests, half of them starting 4 bytes before a block
    // boundary, so they touch two blocks each.
    const auto straddling = [](Rng &rng) {
        std::vector<LaneRequest> lanes(kWarp);
        for (ThreadId t = 0; t < kWarp; ++t) {
            const Addr block = 0x8000 + 64 * rng.below(24);
            const Addr addr = rng.below(2) ? block + 60 : block + 8;
            lanes[t] = {t, addr, 8, true};
        }
        return lanes;
    };
    expectCells({
        {"straddle 64B rss8+rts",
         digest(CoalescingPolicy::rss(8, true), 64, 8, 500, straddling),
         0xc28b5ebfaa5d6f16ull},
        {"straddle 128B fss8+rts",
         digest(CoalescingPolicy::fss(8, true), 128, 9, 500, straddling),
         0x11ba1e29acc37690ull},
        {"ttable 64B base",
         digest(CoalescingPolicy::baseline(), 64, 10, 500, tTableLanes),
         0xbae71f09c25451f4ull},
        {"ttable 64B rss8+rts",
         digest(CoalescingPolicy::rss(8, true), 64, 11, 500, tTableLanes),
         0xe50bb5a5a86d50ffull},
    });
}

TEST(CoalescerGolden, OverflowInputsTakeTheSlowPath)
{
    // 32 lanes over 5 distinct 64-byte blocks each: 160 accesses, past
    // the fast path's 128-access scratch.
    const auto many_accesses = [](Rng &rng) {
        std::vector<LaneRequest> lanes(kWarp);
        for (ThreadId t = 0; t < kWarp; ++t)
            lanes[t] = {t, 0x40000 + Addr{t} * 4096 + 64 * rng.below(8),
                        5 * 64, true};
        return lanes;
    };
    // Every lane reads 512 bytes of the same 9-block window: at most 9
    // accesses per subwarp, but ~280 lane entries, past the 256-entry
    // scratch.
    const auto many_lanes = [](Rng &rng) {
        std::vector<LaneRequest> lanes(kWarp);
        const Addr base = 0x20000 + 64 * rng.below(16);
        for (ThreadId t = 0; t < kWarp; ++t)
            lanes[t] = {t, base + 4 * rng.below(16), 8 * 64, true};
        return lanes;
    };
    expectCells({
        {"160 accesses rss8+rts",
         digest(CoalescingPolicy::rss(8, true), 64, 12, 50, many_accesses),
         0x0ffed7caeaaa648full},
        {"288 lane entries fss8+rts",
         digest(CoalescingPolicy::fss(8, true), 64, 13, 50, many_lanes),
         0x6da5a8dd3b5f2121ull},
    });
}

} // namespace
} // namespace rcoal::core
