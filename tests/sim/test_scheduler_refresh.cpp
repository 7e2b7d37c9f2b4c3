/**
 * @file
 * Tests for the warp scheduler policies and DRAM refresh.
 */

#include <gtest/gtest.h>

#include "rcoal/sim/dram.hpp"
#include "rcoal/sim/gpu.hpp"
#include "rcoal/workloads/micro_kernels.hpp"
#include "support/slab_ports.hpp"

namespace rcoal::sim {
namespace {

TEST(SchedulerPolicyTest, BothPoliciesCompleteWithSameWork)
{
    const auto kernel = workloads::makeStreamingKernel(8, 20, 32);
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.seed = 4;
    cfg.numSms = 2; // several warps per scheduler

    cfg.scheduler = SchedulerPolicy::LooseRoundRobin;
    const auto lrr = Gpu(cfg).launch(*kernel);
    cfg.scheduler = SchedulerPolicy::GreedyThenOldest;
    const auto gto = Gpu(cfg).launch(*kernel);

    EXPECT_EQ(lrr.coalescedAccesses, gto.coalescedAccesses);
    EXPECT_EQ(lrr.warpInstructions, gto.warpInstructions);
    EXPECT_GT(gto.cycles, 0u);
}

TEST(SchedulerPolicyTest, GtoPrefersASingleWarp)
{
    // With two compute-heavy warps on one scheduler, GTO drains one
    // before touching the other; LRR interleaves. Both finish, and the
    // total time is within the same ballpark.
    std::vector<std::vector<WarpInstruction>> traces(2);
    for (auto &trace : traces) {
        for (int i = 0; i < 30; ++i)
            trace.push_back(WarpInstruction::alu(1));
    }
    const VectorKernel kernel(std::move(traces));
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.numSms = 1;
    cfg.issueWidth = 1;

    cfg.scheduler = SchedulerPolicy::GreedyThenOldest;
    const auto gto = Gpu(cfg).launch(kernel);
    cfg.scheduler = SchedulerPolicy::LooseRoundRobin;
    const auto lrr = Gpu(cfg).launch(kernel);
    EXPECT_EQ(gto.warpInstructions, 60u);
    EXPECT_EQ(lrr.warpInstructions, 60u);
    // One issue per cycle either way: identical completion time.
    EXPECT_EQ(gto.cycles, lrr.cycles);
}

TEST(DramRefresh, DisabledByDefaultAndNoRefreshStats)
{
    const auto kernel = workloads::makeStreamingKernel(1, 50, 32);
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.seed = 4;
    const auto stats = Gpu(cfg).launch(*kernel);
    EXPECT_EQ(stats.dramRefreshes, 0u);
}

TEST(DramRefresh, FiresPeriodicallyWhenEnabled)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.refreshEnabled = true;
    cfg.timing.tREFI = 50;
    cfg.timing.tRFC = 10;
    KernelStats stats;
    AccessSlab slab;
    DramPartition dram(cfg, 0, &stats, slab);
    for (Cycle c = 1; c <= 500; ++c)
        dram.tick(c);
    // ~500/50 = 10 refreshes (first at tREFI).
    EXPECT_GE(stats.dramRefreshes, 9u);
    EXPECT_LE(stats.dramRefreshes, 10u);
}

TEST(DramRefresh, RefreshClosesRowsAndDelaysAccess)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.refreshEnabled = true;
    cfg.timing.tREFI = 60;
    cfg.timing.tRFC = 40;

    KernelStats stats;
    test::SlabPorts ports;
    DramPartition dram(cfg, 0, &stats, ports.slab);
    const AddressMapping mapping(cfg);

    // Warm the row before the refresh window.
    MemoryAccess first;
    first.id = 1;
    first.blockAddr = 0;
    ports.enqueue(dram, first, mapping.decode(0));
    Cycle done1 = 0;
    for (Cycle c = 1; c <= 50 && !done1; ++c) {
        dram.tick(c);
        while (dram.hasCompleted()) {
            ports.takeCompleted(dram);
            done1 = c;
        }
    }
    ASSERT_GT(done1, 0u);

    // Enqueue a same-row access right after the refresh fires at 60:
    // it must wait out tRFC and re-activate (row miss).
    MemoryAccess second;
    second.id = 2;
    second.blockAddr = 64;
    ports.enqueue(dram, second, mapping.decode(64));
    Cycle done2 = 0;
    for (Cycle c = 61; c <= 400 && !done2; ++c) {
        dram.tick(c);
        while (dram.hasCompleted()) {
            ports.takeCompleted(dram);
            done2 = c;
        }
    }
    ASSERT_GT(done2, 0u);
    EXPECT_GE(stats.dramRefreshes, 1u);
    // Completion no earlier than refresh end + tRCD + tCL.
    EXPECT_GE(done2, 60u + cfg.timing.tRFC + cfg.timing.tRCD +
                         cfg.timing.tCL);
    EXPECT_EQ(stats.dramRowMisses, 2u); // both needed an ACT
}

TEST(DramRefresh, AesResultsUnchangedByDefault)
{
    // Guard: adding the refresh machinery must not perturb the default
    // (refresh-off) experiment numbers.
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.seed = 4;
    const auto kernel = workloads::makeStridedKernel(2, 10, 32, 64);
    const auto a = Gpu(cfg).launch(*kernel);
    const auto b = Gpu(cfg).launch(*kernel);
    EXPECT_EQ(a.cycles, b.cycles);
}

} // namespace
} // namespace rcoal::sim
