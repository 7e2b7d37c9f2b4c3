/**
 * @file
 * Unit tests for the GDDR5 FR-FCFS memory partition model.
 */

#include <string>

#include <gtest/gtest.h>

#include "rcoal/common/rng.hpp"
#include "rcoal/mem/dram_backend.hpp"
#include "rcoal/sim/dram.hpp"
#include "support/slab_ports.hpp"

namespace rcoal::sim {
namespace {

struct DramFixture : public testing::Test
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    KernelStats stats;
    test::SlabPorts ports;

    MemoryAccess
    makeAccess(std::uint64_t id, Addr addr, bool write = false)
    {
        MemoryAccess a;
        a.id = id;
        a.blockAddr = addr;
        a.bytes = 64;
        a.isWrite = write;
        return a;
    }

    DramLocation
    loc(unsigned bank, std::uint64_t row)
    {
        DramLocation l;
        l.partition = 0;
        l.bank = bank;
        l.bankGroup = bank % cfg.bankGroups;
        l.row = row;
        l.column = 0;
        return l;
    }

    /** Run until the access with @p id completes; returns that cycle. */
    Cycle
    runUntilComplete(DramPartition &dram, std::uint64_t id,
                     Cycle start = 0, Cycle limit = 10000)
    {
        for (Cycle c = start; c < limit; ++c) {
            dram.tick(c);
            while (dram.hasCompleted()) {
                const MemoryAccess done = ports.takeCompleted(dram);
                if (done.id == id)
                    return c;
            }
        }
        ADD_FAILURE() << "access " << id << " never completed";
        return 0;
    }
};

TEST_F(DramFixture, ColdAccessLatencyIsActPlusCasPlusBurst)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    ports.enqueue(dram, makeAccess(1, 0), loc(0, 0));
    const Cycle done = runUntilComplete(dram, 1);
    // ACT at cycle 0 -> READ ready at tRCD -> data at tCL + burst.
    const Cycle expected = 0 + cfg.timing.tRCD + cfg.timing.tCL +
                           cfg.burstCycles;
    EXPECT_EQ(done, expected);
    EXPECT_EQ(stats.dramActivates, 1u);
    EXPECT_EQ(stats.dramRowMisses, 1u);
    EXPECT_EQ(stats.dramRowHits, 0u);
}

TEST_F(DramFixture, RowHitIsFasterThanRowMiss)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    ports.enqueue(dram, makeAccess(1, 0x000), loc(0, 0));
    const Cycle first = runUntilComplete(dram, 1);
    // Same bank, same row: no ACT needed.
    ports.enqueue(dram, makeAccess(2, 0x040), loc(0, 0));
    const Cycle second = runUntilComplete(dram, 2, first);
    EXPECT_LT(second - first, cfg.timing.tRCD + cfg.timing.tCL +
                                  cfg.burstCycles);
    EXPECT_EQ(stats.dramRowHits, 1u);
}

TEST_F(DramFixture, RowConflictRequiresPrechargeDelay)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    ports.enqueue(dram, makeAccess(1, 0), loc(0, 0));
    const Cycle first = runUntilComplete(dram, 1);
    // Same bank, different row: must wait tRAS, precharge (tRP), ACT
    // (tRCD) before the read.
    ports.enqueue(dram, makeAccess(2, 0), loc(0, 7));
    const Cycle second = runUntilComplete(dram, 2, first);
    EXPECT_GE(second - first, cfg.timing.tRP);
    EXPECT_EQ(stats.dramPrecharges, 1u);
    EXPECT_EQ(stats.dramRowMisses, 2u);
}

TEST_F(DramFixture, FrFcfsPrioritizesRowHitOverOlderMiss)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    // Open row 0 of bank 0.
    ports.enqueue(dram, makeAccess(1, 0), loc(0, 0));
    const Cycle warm = runUntilComplete(dram, 1);
    // Older request: bank 0, row 5 (conflict). Newer: bank 0, row 0
    // (hit). FR-FCFS services the hit first.
    ports.enqueue(dram, makeAccess(2, 0), loc(0, 5));
    ports.enqueue(dram, makeAccess(3, 0x40), loc(0, 0));
    Cycle done2 = 0;
    Cycle done3 = 0;
    for (Cycle c = warm; c < warm + 1000 && (!done2 || !done3); ++c) {
        dram.tick(c);
        while (dram.hasCompleted()) {
            const MemoryAccess done = ports.takeCompleted(dram);
            (done.id == 2 ? done2 : done3) = c;
        }
    }
    ASSERT_NE(done2, 0u);
    ASSERT_NE(done3, 0u);
    EXPECT_LT(done3, done2);
}

TEST_F(DramFixture, BankParallelismBeatsSerialSameBank)
{
    // Four accesses to four different banks complete sooner than four
    // row-conflicting accesses to one bank.
    KernelStats stats_par;
    DramPartition par(cfg, 0, &stats_par, ports.slab);
    for (unsigned i = 0; i < 4; ++i)
        ports.enqueue(par, makeAccess(i, 0), loc(i, 0));
    Cycle last_par = 0;
    for (unsigned i = 0; i < 4; ++i)
        last_par = std::max(last_par, runUntilComplete(par, i));

    KernelStats stats_ser;
    DramPartition ser(cfg, 0, &stats_ser, ports.slab);
    for (unsigned i = 0; i < 4; ++i)
        ports.enqueue(ser, makeAccess(i, 0), loc(0, i));
    Cycle last_ser = 0;
    for (unsigned i = 0; i < 4; ++i)
        last_ser = std::max(last_ser, runUntilComplete(ser, i));

    EXPECT_LT(last_par, last_ser);
}

TEST_F(DramFixture, DataBusSerializesBursts)
{
    // N row hits to the same open row: completions are spaced at least
    // burstCycles apart (single data bus).
    DramPartition dram(cfg, 0, &stats, ports.slab);
    ports.enqueue(dram, makeAccess(0, 0), loc(0, 0));
    runUntilComplete(dram, 0);
    constexpr unsigned kN = 6;
    for (unsigned i = 1; i <= kN; ++i)
        ports.enqueue(dram, makeAccess(i, Addr{i} * 64), loc(0, 0));
    std::vector<Cycle> completions;
    for (Cycle c = 50; c < 2000 && completions.size() < kN; ++c) {
        dram.tick(c);
        while (dram.hasCompleted()) {
            ports.takeCompleted(dram);
            completions.push_back(c);
        }
    }
    ASSERT_EQ(completions.size(), kN);
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i] - completions[i - 1], cfg.burstCycles);
}

TEST_F(DramFixture, QueueCapacityHonored)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    for (std::size_t i = 0; i < cfg.dramQueueDepth; ++i) {
        ASSERT_TRUE(dram.canAccept());
        ports.enqueue(dram, makeAccess(i, Addr{i} * 64), loc(0, 0));
    }
    EXPECT_FALSE(dram.canAccept());
}

TEST_F(DramFixture, WritesCompleteToo)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    ports.enqueue(dram, makeAccess(1, 0, true), loc(0, 0));
    const Cycle done = runUntilComplete(dram, 1);
    EXPECT_GT(done, 0u);
    EXPECT_TRUE(dram.idle());
}

TEST_F(DramFixture, IdleWhenDrained)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    EXPECT_TRUE(dram.idle());
    ports.enqueue(dram, makeAccess(1, 0), loc(0, 0));
    EXPECT_FALSE(dram.idle());
    runUntilComplete(dram, 1);
    EXPECT_TRUE(dram.idle());
}

TEST_F(DramFixture, ActToActSameBankRespectsTrc)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    // Two different-row requests to one bank: the second ACT cannot
    // happen before tRC after the first.
    ports.enqueue(dram, makeAccess(1, 0), loc(0, 0));
    ports.enqueue(dram, makeAccess(2, 0), loc(0, 3));
    const Cycle second = runUntilComplete(dram, 2);
    // First ACT at 0; second ACT >= tRC; data >= tRC + tRCD + tCL.
    EXPECT_GE(second, cfg.timing.tRC + cfg.timing.tRCD + cfg.timing.tCL);
}

TEST_F(DramFixture, ActToActDifferentBanksRespectsTrrd)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    ports.enqueue(dram, makeAccess(1, 0), loc(0, 0));
    ports.enqueue(dram, makeAccess(2, 0), loc(1, 0));
    const Cycle c1 = runUntilComplete(dram, 1);
    const Cycle c2 = runUntilComplete(dram, 2, c1);
    // Second bank's ACT is delayed by tRRD, so its completion trails
    // the first by at least tRRD (bursts permitting).
    EXPECT_GE(c2, cfg.timing.tRRD + cfg.timing.tRCD + cfg.timing.tCL);
}

TEST_F(DramFixture, StatsRowHitRatioForStreamingPattern)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    // 8 sequential blocks in one row: 1 miss + 7 hits.
    for (unsigned i = 0; i < 8; ++i)
        ports.enqueue(dram, makeAccess(i, Addr{i} * 64), loc(0, 0));
    for (unsigned i = 0; i < 8; ++i)
        runUntilComplete(dram, i);
    EXPECT_EQ(stats.dramRowMisses, 1u);
    EXPECT_EQ(stats.dramRowHits, 7u);
}

TEST_F(DramFixture, DeathOnEnqueueWhenFull)
{
    DramPartition dram(cfg, 0, &stats, ports.slab);
    for (std::size_t i = 0; i < cfg.dramQueueDepth; ++i)
        ports.enqueue(dram, makeAccess(i, Addr{i} * 64), loc(0, 0));
    EXPECT_DEATH(ports.enqueue(dram, makeAccess(99, 0), loc(0, 0)), "full");
}

TEST_F(DramFixture, QueuedRequestsCountsUnservicedPlusInFlight)
{
    // The queue depth bounds unserviced requests plus bursts in flight:
    // a column winner leaves the FR-FCFS candidates at issue but keeps
    // its slot of the depth until its data burst retires.
    DramPartition dram(cfg, 0, &stats, ports.slab);
    const std::size_t depth = cfg.dramQueueDepth;
    for (std::size_t i = 0; i < depth; ++i)
        ports.enqueue(dram, makeAccess(i, i * 64), loc(0, 5));
    EXPECT_EQ(dram.queuedRequests(), depth);
    EXPECT_FALSE(dram.canAccept());

    std::size_t popped = 0;
    bool saw_only_in_flight = false;
    for (Cycle c = 1; popped < depth && c < 10000; ++c) {
        dram.tick(c);
        while (dram.hasCompleted()) {
            ports.takeCompleted(dram);
            ++popped;
        }
        // Every column command moved one request in flight.
        const std::size_t columns = stats.dramRowHits + stats.dramRowMisses;
        const std::size_t unserviced = depth - columns;
        const std::size_t in_flight = columns - popped;
        EXPECT_EQ(dram.queuedRequests(), unserviced + in_flight)
            << "cycle " << c;
        EXPECT_EQ(dram.canAccept(), popped > 0) << "cycle " << c;
        saw_only_in_flight |= unserviced == 0 && in_flight > 1;
    }
    EXPECT_EQ(popped, depth);
    EXPECT_TRUE(saw_only_in_flight)
        << "bursts in flight never outlived the last column command";
    EXPECT_EQ(dram.queuedRequests(), 0u);
    EXPECT_TRUE(dram.idle());
}

TEST_F(DramFixture, NoTickRetiresMoreThanOneBurst)
{
    // `completed` keeps retirement order without a tie-break because
    // bursts never finish together: completions strictly increase along
    // each pseudo-channel, and the per-channel tCCD window (=
    // burstCycles) keeps HBM2's two buses from backing up, so every
    // burst lands at its column issue + tCL + burst. A full queue of
    // mostly row hits on both channels is where two would collide.
    for (const DramBackendKind backend :
         {DramBackendKind::Gddr6, DramBackendKind::Hbm2}) {
        for (const bool refresh : {false, true}) {
            cfg.dramBackend = backend;
            cfg.refreshEnabled = refresh;
            const std::string cell =
                std::string(mem::dramBackendKindName(backend)) +
                (refresh ? " refresh" : "");
            KernelStats backlog_stats;
            DramPartition dram(cfg, 0, &backlog_stats, ports.slab);
            const unsigned half = cfg.banksPerPartition / 2;
            Rng rng(17);
            constexpr std::uint64_t kRequests = 8000;
            std::uint64_t next_id = 0;
            std::uint64_t popped = 0;
            Cycle c = 1;
            for (; popped < kRequests && c < 100000; ++c) {
                while (next_id < kRequests && dram.canAccept()) {
                    const auto bank = static_cast<unsigned>(
                        rng.below(2) + (rng.below(2) == 0 ? 0 : half));
                    ports.enqueue(dram, makeAccess(next_id, next_id * 64),
                                  loc(bank, bank));
                    ++next_id;
                }
                dram.tick(c);
                unsigned retired = 0;
                while (dram.hasCompleted()) {
                    ports.takeCompleted(dram);
                    ++retired;
                }
                ASSERT_LE(retired, 1u) << cell << ", cycle " << c;
                popped += retired;
            }
            EXPECT_EQ(popped, kRequests) << cell;
            EXPECT_EQ(backlog_stats.dramRefreshes > 0, refresh) << cell;
            if (backend == DramBackendKind::Hbm2) {
                // One bus moves at most one burst per burstCycles; more
                // than that means both channels streamed at once.
                EXPECT_GT(popped * dram.backendTiming().burstCycles, c)
                    << cell;
            }
        }
    }
}

} // namespace
} // namespace rcoal::sim
