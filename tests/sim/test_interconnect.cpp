/**
 * @file
 * Unit tests for the crossbar interconnect.
 */

#include <gtest/gtest.h>

#include "rcoal/sim/interconnect.hpp"
#include "support/slab_ports.hpp"

namespace rcoal::sim {
namespace {

MemoryAccess
accessWithId(std::uint64_t id)
{
    MemoryAccess a;
    a.id = id;
    return a;
}

TEST(Crossbar, DeliversAfterTraversalLatency)
{
    test::SlabPorts ports;
    Crossbar xbar(2, 2, 8, 16, ports.slab);
    ports.inject(xbar, 0, 1, accessWithId(7), 0);
    for (Cycle c = 1; c <= 7; ++c) {
        xbar.tick(c);
        EXPECT_FALSE(xbar.outputReady(1)) << "cycle " << c;
    }
    xbar.tick(8);
    ASSERT_TRUE(xbar.outputReady(1));
    EXPECT_EQ(ports.takeOutput(xbar, 1).id, 7u);
    EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, OnePacketPerOutputPerCycle)
{
    test::SlabPorts ports;
    Crossbar xbar(4, 1, 1, 16, ports.slab);
    for (unsigned in = 0; in < 4; ++in)
        ports.inject(xbar, in, 0, accessWithId(in), 0);
    unsigned delivered = 0;
    for (Cycle c = 1; c <= 10 && delivered < 4; ++c) {
        xbar.tick(c);
        unsigned this_cycle = 0;
        while (xbar.outputReady(0)) {
            ports.takeOutput(xbar, 0);
            ++this_cycle;
        }
        EXPECT_LE(this_cycle, 1u);
        delivered += this_cycle;
    }
    EXPECT_EQ(delivered, 4u);
}

TEST(Crossbar, DistinctOutputsProgressInParallel)
{
    test::SlabPorts ports;
    Crossbar xbar(2, 2, 1, 16, ports.slab);
    ports.inject(xbar, 0, 0, accessWithId(1), 0);
    ports.inject(xbar, 1, 1, accessWithId(2), 0);
    xbar.tick(1);
    EXPECT_TRUE(xbar.outputReady(0));
    EXPECT_TRUE(xbar.outputReady(1));
}

TEST(Crossbar, FifoOrderWithinInput)
{
    test::SlabPorts ports;
    Crossbar xbar(1, 1, 1, 16, ports.slab);
    ports.inject(xbar, 0, 0, accessWithId(1), 0);
    ports.inject(xbar, 0, 0, accessWithId(2), 0);
    ports.inject(xbar, 0, 0, accessWithId(3), 0);
    std::vector<std::uint64_t> order;
    for (Cycle c = 1; c <= 10 && order.size() < 3; ++c) {
        xbar.tick(c);
        while (xbar.outputReady(0))
            order.push_back(ports.takeOutput(xbar, 0).id);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Crossbar, InputBackpressure)
{
    test::SlabPorts ports;
    Crossbar xbar(1, 1, 1, 2, ports.slab);
    EXPECT_TRUE(xbar.canInject(0));
    ports.inject(xbar, 0, 0, accessWithId(1), 0);
    ports.inject(xbar, 0, 0, accessWithId(2), 0);
    EXPECT_FALSE(xbar.canInject(0));
}

TEST(Crossbar, OutputQueueBackpressureStallsTransfer)
{
    test::SlabPorts ports;
    Crossbar xbar(1, 1, 1, 2, ports.slab);
    ports.inject(xbar, 0, 0, accessWithId(1), 0);
    ports.inject(xbar, 0, 0, accessWithId(2), 0);
    // Move both to the output queue (capacity 2), never popping.
    xbar.tick(1);
    xbar.tick(2);
    // Input is free again; two more fill the input.
    ports.inject(xbar, 0, 0, accessWithId(3), 2);
    ports.inject(xbar, 0, 0, accessWithId(4), 2);
    // Output queue is full: nothing moves.
    xbar.tick(10);
    EXPECT_FALSE(xbar.canInject(0));
    // Draining the output unblocks the pipeline.
    ports.takeOutput(xbar, 0);
    xbar.tick(11);
    EXPECT_TRUE(xbar.canInject(0));
}

TEST(Crossbar, ArbitrationIsFairUnderContention)
{
    // Two inputs hammer one output; both should make progress at
    // similar rates.
    test::SlabPorts ports;
    Crossbar xbar(2, 1, 1, 4, ports.slab);
    std::array<unsigned, 2> delivered{};
    Cycle now = 0;
    for (int round = 0; round < 200; ++round) {
        ++now;
        for (unsigned in = 0; in < 2; ++in) {
            if (xbar.canInject(in))
                ports.inject(xbar, in, 0, accessWithId(in), now);
        }
        xbar.tick(now);
        while (xbar.outputReady(0))
            ++delivered[ports.takeOutput(xbar, 0).id];
    }
    EXPECT_GT(delivered[0], 50u);
    EXPECT_GT(delivered[1], 50u);
}

TEST(Crossbar, RoundRobinSharesOneOutputEvenly)
{
    // Four saturated inputs into one output: the (scalar) round-robin
    // pointer must hand out grants evenly, not favour low input ids.
    constexpr unsigned kInputs = 4;
    constexpr unsigned kRounds = 400;
    test::SlabPorts ports;
    Crossbar xbar(kInputs, 1, 1, 4, ports.slab);
    std::array<unsigned, kInputs> delivered{};
    Cycle now = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        ++now;
        for (unsigned in = 0; in < kInputs; ++in) {
            if (xbar.canInject(in))
                ports.inject(xbar, in, 0, accessWithId(in), now);
        }
        xbar.tick(now);
        while (xbar.outputReady(0))
            ++delivered[ports.takeOutput(xbar, 0).id];
    }
    unsigned total = 0;
    for (unsigned in = 0; in < kInputs; ++in)
        total += delivered[in];
    // One grant per cycle, so ~kRounds packets split four ways; allow
    // slack for pipeline fill but not for starvation or heavy skew.
    EXPECT_GE(total, kRounds - 2 * kInputs);
    for (unsigned in = 0; in < kInputs; ++in) {
        EXPECT_GE(delivered[in], kRounds / kInputs - 5) << "input " << in;
        EXPECT_LE(delivered[in], kRounds / kInputs + 5) << "input " << in;
    }
}

TEST(Crossbar, PacketCountTracksTransfers)
{
    test::SlabPorts ports;
    Crossbar xbar(1, 1, 1, 8, ports.slab);
    ports.inject(xbar, 0, 0, accessWithId(1), 0);
    xbar.tick(1);
    EXPECT_EQ(xbar.packetsTransferred(), 1u);
}

TEST(Crossbar, IdleReflectsOccupancy)
{
    test::SlabPorts ports;
    Crossbar xbar(1, 1, 4, 8, ports.slab);
    EXPECT_TRUE(xbar.idle());
    ports.inject(xbar, 0, 0, accessWithId(1), 0);
    EXPECT_FALSE(xbar.idle());
    for (Cycle c = 1; c <= 4; ++c)
        xbar.tick(c);
    EXPECT_FALSE(xbar.idle()); // sitting in the output queue
    ports.takeOutput(xbar, 0);
    EXPECT_TRUE(xbar.idle());
}

TEST(CrossbarDeathTest, InvalidPortsPanic)
{
    AccessSlab slab;
    Crossbar xbar(2, 2, 1, 4, slab);
    EXPECT_DEATH(xbar.canInject(5), "out of range");
    EXPECT_DEATH(xbar.popOutputSlot(0), "empty");
}

} // namespace
} // namespace rcoal::sim
