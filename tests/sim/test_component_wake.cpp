/**
 * @file
 * Wake-vs-awake checks of the component bounds the machine's wake
 * calendar reads: Crossbar::nextEventCycle() and
 * DramPartition::workBound(). Two instances take the same seeded
 * traffic; one ticks every cycle, the other only once its bound, read
 * again after each tick and each input, arrives (a sleeping crossbar
 * books its skipped rotation first). A bound that is one cycle late
 * shows up here as a packet or a burst that leaves a cycle late, or a
 * counter that differs, before any machine-level test runs.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/common/rng.hpp"
#include "rcoal/mem/dram_backend.hpp"
#include "rcoal/sim/dram.hpp"
#include "rcoal/sim/interconnect.hpp"
#include "support/slab_ports.hpp"

namespace rcoal::sim {
namespace {

/** One packet or access leaving a component. */
struct Departure
{
    Cycle cycle = 0;
    unsigned port = 0;
    std::uint64_t id = 0;

    bool operator==(const Departure &) const = default;
};

/** Traffic is on for 300 of every 700 cycles, so bounds span gaps. */
bool
busyPhase(Cycle now)
{
    return now % 700 < 300;
}

struct CrossbarRun
{
    std::vector<Departure> popped;
    std::uint64_t transferred = 0;
    unsigned ticks = 0;
};

/**
 * Drive a 6 x 3 crossbar with seeded inject and eject traffic for
 * 8000 cycles. Injects come before the tick, as SM injects do; the
 * outputs then drain with probability 1/2 each, so backpressure comes
 * and goes.
 */
CrossbarRun
driveCrossbar(unsigned latency, std::size_t depth, bool at_bound)
{
    constexpr unsigned kInputs = 6;
    constexpr unsigned kOutputs = 3;
    test::SlabPorts ports;
    Crossbar xbar(kInputs, kOutputs, latency, depth, ports.slab);
    Rng rng(latency * 100 + depth);
    CrossbarRun run;
    Cycle wake = kInvalidCycle;
    Cycle settled = 0; // Last cycle whose rotation is booked.
    std::uint64_t next_id = 0;
    for (Cycle now = 1; now <= 8000; ++now) {
        bool input = false;
        for (unsigned in = 0; in < kInputs; ++in) {
            const bool send = rng.chance(busyPhase(now) ? 0.4 : 0.01);
            const auto out = static_cast<unsigned>(rng.below(kOutputs));
            if (send && xbar.canInject(in)) {
                MemoryAccess access;
                access.id = next_id++;
                ports.inject(xbar, in, out, access, now);
                input = true;
            }
        }
        // An inject before this cycle's tick may be grantable now.
        if (input)
            wake = xbar.nextEventCycle(now - 1);
        const bool tick = !at_bound || now >= wake;
        if (tick) {
            xbar.advanceIdleCycles(now - 1 - settled);
            xbar.tick(now);
            settled = now;
            ++run.ticks;
        }
        for (unsigned out = 0; out < kOutputs; ++out) {
            if (rng.chance(0.5) && xbar.outputReady(out)) {
                run.popped.push_back(
                    {now, out, ports.takeOutput(xbar, out).id});
                input = true;
            }
        }
        if (tick || input)
            wake = xbar.nextEventCycle(now);
    }
    run.transferred = xbar.packetsTransferred();
    return run;
}

TEST(ComponentWake, CrossbarTickedAtItsBoundMatchesStepping)
{
    for (const unsigned latency : {0u, 1u, 8u}) {
        for (const std::size_t depth : {std::size_t{2}, std::size_t{4}}) {
            const std::string cell = "latency " + std::to_string(latency) +
                                     ", depth " + std::to_string(depth);
            const CrossbarRun stepped = driveCrossbar(latency, depth, false);
            const CrossbarRun woken = driveCrossbar(latency, depth, true);
            EXPECT_GT(stepped.popped.size(), 1000u) << cell;
            EXPECT_EQ(stepped.popped, woken.popped) << cell;
            EXPECT_EQ(stepped.transferred, woken.transferred) << cell;
            // The bound must actually let the crossbar sleep.
            EXPECT_LT(woken.ticks, stepped.ticks / 2) << cell;
        }
    }
}

struct DramRun
{
    std::vector<Departure> completed;
    KernelStats stats;
    std::vector<DramPartition::BankCounters> banks;
    std::uint64_t refreshes = 0;
    unsigned ticks = 0;
};

/**
 * Drive one partition with seeded reads and writes over four rows of
 * every bank for 30000 memory cycles, popping completions each cycle.
 */
DramRun
driveDram(DramBackendKind backend, bool refresh, bool at_bound)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.dramBackend = backend;
    cfg.refreshEnabled = refresh;
    cfg.dramQueueDepth = 8;
    test::SlabPorts ports;
    DramRun run;
    DramPartition dram(cfg, 0, &run.stats, ports.slab);
    Rng rng(static_cast<std::uint64_t>(backend) * 2 + (refresh ? 1 : 0));
    Cycle wake = dram.workBound(0);
    std::uint64_t next_id = 0;
    for (Cycle now = 1; now <= 30000; ++now) {
        const bool send = rng.chance(busyPhase(now) ? 0.3 : 0.005);
        DramLocation loc;
        loc.bank = static_cast<unsigned>(rng.below(cfg.banksPerPartition));
        loc.bankGroup = loc.bank % cfg.bankGroups;
        loc.row = rng.below(4);
        MemoryAccess access;
        access.id = next_id;
        access.isWrite = rng.chance(0.25);
        // Read again after an enqueue, as the machine does when no
        // memory cycle follows it within the core cycle.
        if (send && dram.canAccept()) {
            ports.enqueue(dram, access, loc);
            ++next_id;
            wake = dram.workBound(now - 1);
        }
        if (!at_bound || now >= wake) {
            dram.tick(now);
            wake = dram.workBound(now);
            ++run.ticks;
        }
        while (dram.hasCompleted())
            run.completed.push_back({now, 0, ports.takeCompleted(dram).id});
    }
    run.banks = dram.bankCounters();
    run.refreshes = dram.refreshes();
    return run;
}

TEST(ComponentWake, DramTickedAtItsBoundMatchesStepping)
{
    for (const DramBackendKind backend :
         {DramBackendKind::Gddr5, DramBackendKind::Gddr6,
          DramBackendKind::Hbm2}) {
        for (const bool refresh : {false, true}) {
            const std::string cell =
                std::string(mem::dramBackendKindName(backend)) +
                (refresh ? " refresh" : "");
            const DramRun stepped = driveDram(backend, refresh, false);
            const DramRun woken = driveDram(backend, refresh, true);
            EXPECT_GT(stepped.completed.size(), 1000u) << cell;
            EXPECT_EQ(stepped.completed, woken.completed) << cell;
            EXPECT_EQ(stepped.stats.dramRowHits, woken.stats.dramRowHits)
                << cell;
            EXPECT_EQ(stepped.stats.dramRowMisses,
                      woken.stats.dramRowMisses)
                << cell;
            EXPECT_EQ(stepped.stats.dramActivates,
                      woken.stats.dramActivates)
                << cell;
            EXPECT_EQ(stepped.stats.dramPrecharges,
                      woken.stats.dramPrecharges)
                << cell;
            EXPECT_EQ(stepped.stats.dramRefreshes,
                      woken.stats.dramRefreshes)
                << cell;
            EXPECT_EQ(stepped.refreshes > 0, refresh) << cell;
            EXPECT_EQ(stepped.refreshes, woken.refreshes) << cell;
            ASSERT_EQ(stepped.banks.size(), woken.banks.size()) << cell;
            for (std::size_t b = 0; b < stepped.banks.size(); ++b) {
                const std::string bank = cell + " bank " + std::to_string(b);
                EXPECT_EQ(stepped.banks[b].rowHits, woken.banks[b].rowHits)
                    << bank;
                EXPECT_EQ(stepped.banks[b].rowMisses,
                          woken.banks[b].rowMisses)
                    << bank;
                EXPECT_EQ(stepped.banks[b].activates,
                          woken.banks[b].activates)
                    << bank;
                EXPECT_EQ(stepped.banks[b].precharges,
                          woken.banks[b].precharges)
                    << bank;
            }
            EXPECT_LT(woken.ticks, stepped.ticks / 2) << cell;
        }
    }
}

} // namespace
} // namespace rcoal::sim
