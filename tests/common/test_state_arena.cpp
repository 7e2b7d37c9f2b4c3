/**
 * @file
 * StateArena framing: the reader's checks that catch a restore walking
 * different fields than the snapshot wrote.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/common/state_arena.hpp"

namespace rcoal::common {
namespace {

/** An arena of one region @p tag holding a u32 and a u64. */
StateArena
twoFieldArena(std::uint32_t tag)
{
    StateArena arena;
    ArenaWriter w(arena);
    w.beginRegion(tag);
    w.pod(std::uint32_t{7});
    w.pod(std::uint64_t{9});
    w.endRegion();
    return arena;
}

TEST(StateArena, RoundTripsPodsVectorsAndStrings)
{
    StateArena arena;
    {
        ArenaWriter w(arena);
        w.beginRegion(1);
        w.pod(std::uint16_t{3});
        w.podVector(std::vector<std::uint32_t>{4, 5, 6});
        w.string("seven");
        w.endRegion();
        w.beginRegion(2);
        w.endRegion();
    }
    ArenaReader r(arena);
    r.beginRegion(1);
    EXPECT_EQ(r.take<std::uint16_t>(), 3u);
    std::vector<std::uint32_t> v;
    r.podVector(v);
    EXPECT_EQ(v, (std::vector<std::uint32_t>{4, 5, 6}));
    std::string s;
    r.string(s);
    EXPECT_EQ(s, "seven");
    r.endRegion();
    r.beginRegion(2);
    r.endRegion();
    EXPECT_TRUE(r.atEnd());
}

TEST(StateArenaDeathTest, RegionTagMismatchPanics)
{
    const StateArena arena = twoFieldArena(0x61626364);
    EXPECT_DEATH(
        {
            ArenaReader r(arena);
            r.beginRegion(0x61626365);
        },
        "region tag mismatch");
}

TEST(StateArenaDeathTest, RegionNotFullyConsumedPanics)
{
    const StateArena arena = twoFieldArena(1);
    EXPECT_DEATH(
        {
            ArenaReader r(arena);
            r.beginRegion(1);
            r.take<std::uint32_t>();
            r.endRegion();
        },
        "not fully consumed: 8 bytes left");
}

TEST(StateArenaDeathTest, ReadOverrunningItsRegionPanics)
{
    const StateArena arena = twoFieldArena(1);
    EXPECT_DEATH(
        {
            ArenaReader r(arena);
            r.beginRegion(1);
            r.take<std::uint64_t>();
            r.take<std::uint64_t>();
        },
        "overruns its region");
}

TEST(StateArenaDeathTest, ExpectMismatchPanics)
{
    StateArena arena;
    {
        ArenaWriter w(arena);
        w.beginRegion(1);
        w.expect(std::uint64_t{16}, "cache line count");
        w.endRegion();
    }
    {
        // The same value reads back cleanly.
        ArenaReader r(arena);
        r.beginRegion(1);
        r.expect(std::uint64_t{16}, "cache line count");
        r.endRegion();
    }
    EXPECT_DEATH(
        {
            ArenaReader r(arena);
            r.beginRegion(1);
            r.expect(std::uint64_t{32}, "cache line count");
        },
        "snapshot cache line count mismatch: arena holds 16, this "
        "machine has 32");
}

TEST(StateArenaDeathTest, NestedRegionsPanic)
{
    EXPECT_DEATH(
        {
            StateArena arena;
            ArenaWriter w(arena);
            w.beginRegion(1);
            w.beginRegion(2);
        },
        "do not nest");
    const StateArena arena = twoFieldArena(1);
    EXPECT_DEATH(
        {
            ArenaReader r(arena);
            r.beginRegion(1);
            r.beginRegion(1);
        },
        "do not nest");
}

} // namespace
} // namespace rcoal::common
