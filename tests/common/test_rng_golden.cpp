/**
 * @file
 * Golden digests of the RNG's integer helpers.
 *
 * Every simulated partition and attacker estimate is a function of the
 * exact sequence below(), shuffle() and sampleDistinctSorted() produce,
 * so these constants pin those sequences (values *and* the number of
 * raw draws each call consumes) across refactors of the generator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "rcoal/common/rng.hpp"
#include "support/fnv.hpp"

namespace rcoal {
namespace {

TEST(RngGolden, BelowSequencesForSmallAndLargeBounds)
{
    // 1..64 covers every subwarp/thread bound the partitioner asks for;
    // 2^40 + 3 has a non-zero rejection threshold, and 2^63 + 1 rejects
    // almost half of all raw draws.
    std::vector<std::uint64_t> bounds(64);
    std::iota(bounds.begin(), bounds.end(), 1);
    bounds.push_back((std::uint64_t{1} << 40) + 3);
    bounds.push_back((std::uint64_t{1} << 63) + 1);
    test::Fnv h;
    for (const std::uint64_t bound : bounds) {
        Rng rng(bound);
        for (int i = 0; i < 4096; ++i)
            h.u64(rng.below(bound));
        h.u64(rng.next64()); // Pins the number of draws consumed.
    }
    EXPECT_EQ(h.value(), 0xc1ce505435931f8aull)
        << "0x" << std::hex << h.value();
}

TEST(RngGolden, ShuffleAndFloydSequences)
{
    Rng rng(20261017);
    test::Fnv h;
    for (int rep = 0; rep < 1000; ++rep) {
        std::vector<std::uint32_t> slots(32);
        std::iota(slots.begin(), slots.end(), 0u);
        rng.shuffle(slots);
        h.bytes(slots.data(), slots.size() * sizeof(slots[0]));
        for (const std::uint64_t v : rng.sampleDistinctSorted(7, 31))
            h.u64(v);
    }
    h.u64(rng.next64());
    EXPECT_EQ(h.value(), 0xcad28a554316203cull)
        << "0x" << std::hex << h.value();
}

} // namespace
} // namespace rcoal
