/**
 * @file
 * Unit tests for the hot-path packet store: AccessSlab slot recycling
 * and the SlotRing fixed-capacity FIFO the queue hops are built from.
 *
 * Every test name matches the "*Ring*" / "*Slab*" TSan filters so the
 * suite also runs under ThreadSanitizer in CI alongside the SoA
 * saturation fixtures.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/sim/access_slab.hpp"

namespace rcoal::sim {
namespace {

MemoryAccess
makeAccess(std::uint64_t id)
{
    MemoryAccess access;
    access.id = id;
    access.blockAddr = 0x1000 + id * 64;
    access.bytes = 64;
    access.prtEntries = static_cast<std::uint32_t>(id);
    return access;
}

// ---------------------------------------------------------------------
// SlotRing

TEST(SlotRing, RingPushPopPreservesFifoOrder)
{
    SlotRing<std::uint32_t> ring(4);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 4u);

    for (std::uint32_t v = 0; v < 4; ++v)
        ring.push_back(v);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.size(), 4u);

    for (std::uint32_t v = 0; v < 4; ++v) {
        EXPECT_EQ(ring.front(), v);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SlotRing, RingWraparoundKeepsOrderAndIndexing)
{
    // Cycle enough pushes/pops through a small ring that head wraps
    // several times; FIFO order and operator[] must stay consistent.
    SlotRing<std::uint32_t> ring(3);
    std::uint32_t next = 0;
    std::uint32_t expect = 0;
    ring.push_back(next++);
    ring.push_back(next++);
    for (int step = 0; step < 20; ++step) {
        ring.push_back(next++);
        EXPECT_TRUE(ring.full());
        for (std::size_t i = 0; i < ring.size(); ++i)
            EXPECT_EQ(ring[i], expect + i) << "step " << step;
        EXPECT_EQ(ring.front(), expect);
        ring.pop_front();
        ++expect;
    }
    EXPECT_EQ(ring.size(), 2u);
}

TEST(SlotRing, RingRemoveAtMiddleShiftsTailForward)
{
    SlotRing<std::uint32_t> ring(5);
    for (std::uint32_t v = 0; v < 5; ++v)
        ring.push_back(v);

    ring.removeAt(2); // {0, 1, 3, 4}
    ASSERT_EQ(ring.size(), 4u);
    const std::uint32_t expected[] = {0, 1, 3, 4};
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], expected[i]);

    // Freed capacity is immediately reusable (backpressure parity with
    // the deque this replaced).
    ring.push_back(5);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring[4], 5u);
}

TEST(SlotRing, RingRemoveAtAcrossWrapBoundary)
{
    // Arrange the live window to straddle the physical end of storage,
    // then erase elements on both sides of the wrap point.
    SlotRing<std::uint32_t> ring(4);
    for (std::uint32_t v = 0; v < 4; ++v)
        ring.push_back(v);
    ring.pop_front();
    ring.pop_front();
    ring.push_back(4);
    ring.push_back(5); // Window {2, 3, 4, 5}, head at physical slot 2.

    ring.removeAt(1); // Erase 3: shift crosses the wrap → {2, 4, 5}.
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring[0], 2u);
    EXPECT_EQ(ring[1], 4u);
    EXPECT_EQ(ring[2], 5u);

    ring.removeAt(2); // Erase the last element (wrapped side) → {2, 4}.
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring[0], 2u);
    EXPECT_EQ(ring[1], 4u);

    ring.removeAt(0); // Erase the front without popping → {4}.
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.front(), 4u);
}

TEST(SlotRing, RingResetAndClearDiscardContents)
{
    SlotRing<std::uint32_t> ring(2);
    ring.push_back(7);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 2u);

    ring.push_back(8);
    ring.reset(6);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 6u);
    for (std::uint32_t v = 0; v < 6; ++v)
        ring.push_back(v);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.front(), 0u);
}

TEST(SlotRing, RingGrowsOnFullPushAndNeverShrinks)
{
    // An unbounded queue starts empty, grows across a wrapped window
    // and keeps FIFO order; its capacity survives draining.
    SlotRing<std::uint32_t> ring;
    EXPECT_EQ(ring.capacity(), 0u);
    std::uint32_t next = 0;
    std::uint32_t expect = 0;
    for (int k = 0; k < 6; ++k)
        ring.pushBackGrowing(next++);
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(ring.front(), expect++);
        ring.pop_front();
    }
    for (int k = 0; k < 40; ++k) // Wraps, then grows past 8.
        ring.pushBackGrowing(next++);
    ASSERT_EQ(ring.size(), 42u);
    const std::size_t grown = ring.capacity();
    EXPECT_GE(grown, 42u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], expect + i);
    while (!ring.empty()) {
        EXPECT_EQ(ring.front(), expect++);
        ring.pop_front();
    }
    EXPECT_EQ(expect, next);
    EXPECT_EQ(ring.capacity(), grown);
}

// ---------------------------------------------------------------------
// AccessSlab

TEST(AccessSlab, SlabAllocateAtFreeRoundTrip)
{
    AccessSlab slab(4);
    EXPECT_TRUE(slab.empty());

    const std::uint32_t a = slab.allocate(makeAccess(10));
    const std::uint32_t b = slab.allocate(makeAccess(11));
    EXPECT_NE(a, b);
    EXPECT_EQ(slab.liveCount(), 2u);
    EXPECT_EQ(slab.at(a).id, 10u);
    EXPECT_EQ(slab.at(b).id, 11u);
    EXPECT_EQ(slab.at(a).prtEntries, 10u);

    slab.free(a);
    slab.free(b);
    EXPECT_TRUE(slab.empty());
}

TEST(AccessSlab, SlabRecyclesFreedSlots)
{
    AccessSlab slab(2);
    const std::uint32_t a = slab.allocate(makeAccess(1));
    const std::uint32_t b = slab.allocate(makeAccess(2));
    slab.free(a);

    // LIFO recycling: the freed slot is handed out again before the
    // storage grows. Slot numbers are pure IDs, so this is merely a
    // no-growth check, not an ordering contract the machine relies on.
    const std::uint32_t c = slab.allocate(makeAccess(3));
    EXPECT_EQ(c, a);
    EXPECT_EQ(slab.at(c).id, 3u);
    EXPECT_EQ(slab.at(b).id, 2u);
    EXPECT_EQ(slab.liveCount(), 2u);
    slab.free(b);
    slab.free(c);
    EXPECT_TRUE(slab.empty());
}

TEST(AccessSlab, SlabTakeMovesRecordOutAndFreesSlot)
{
    AccessSlab slab;
    const std::uint32_t slot = slab.allocate(makeAccess(42));
    const MemoryAccess access = slab.take(slot);
    EXPECT_EQ(access.id, 42u);
    EXPECT_EQ(access.blockAddr, 0x1000u + 42 * 64);
    EXPECT_TRUE(slab.empty());

    // The recycled slot is reusable immediately.
    const std::uint32_t again = slab.allocate(makeAccess(43));
    EXPECT_EQ(again, slot);
    EXPECT_EQ(slab.at(again).id, 43u);
    slab.free(again);
}

TEST(AccessSlab, SlabGrowsPastInitialCapacity)
{
    AccessSlab slab(/*initial_capacity=*/1);
    std::vector<std::uint32_t> slots;
    for (std::uint64_t i = 0; i < 100; ++i)
        slots.push_back(slab.allocate(makeAccess(i)));
    EXPECT_EQ(slab.liveCount(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(slab.at(slots[i]).id, i);
    for (const std::uint32_t slot : slots)
        slab.free(slot);
    EXPECT_TRUE(slab.empty());
}

} // namespace
} // namespace rcoal::sim
