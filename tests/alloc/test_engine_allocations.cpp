/**
 * @file
 * Heap-allocation audit of the engine's steady-state tick.
 *
 * Runs the EngineGolden flat GDDR5 serve cell (three concurrent BASE
 * AES batches on three five-SM gangs of the Table I machine, cycle
 * skipping on) and relaunches each batch the cycle it retires, so the
 * machine stays saturated. After a warm-up in which every queue reaches
 * its high-water mark, tick() and skipTo() must not touch the heap:
 * each in-flight access moves as a slab slot through fixed or
 * grow-only rings. Launch and take() run outside the counted window.
 * Cache-enabled machines are out of scope (MshrTable::complete returns
 * a vector).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/heap_counter.hpp"
#include "rcoal/common/rng.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/workloads/aes_kernel.hpp"

namespace rcoal::sim {
namespace {

using test::heapAllocations;

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

constexpr unsigned kGangSms = 5;
constexpr std::array<unsigned, 3> kBatchLines = {480, 352, 640};

TEST(GpuMachineAllocations, FlatServeCellTickIsAllocationFree)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.policy = core::CoalescingPolicy::baseline();
    cfg.l1Enabled = false;
    cfg.l2Enabled = false;
    cfg.mshrEnabled = false;
    cfg.cycleSkipping = true;
    cfg.seed = 20261017;
    cfg.validate();

    std::vector<std::unique_ptr<workloads::AesGpuKernel>> batches;
    for (std::size_t b = 0; b < kBatchLines.size(); ++b) {
        Rng rng = Rng::stream(17, b);
        batches.push_back(std::make_unique<workloads::AesGpuKernel>(
            workloads::randomPlaintext(kBatchLines[b], rng), kKey,
            cfg.warpSize));
    }

    GpuMachine machine(cfg);
    ASSERT_TRUE(machine.cycleSkippingEnabled());
    std::uint64_t stream = 0;
    std::array<GpuMachine::LaunchId, 3> running{};
    for (unsigned g = 0; g < 3; ++g) {
        running[g] = machine.launchStream(
            *batches[g], SmRange{g * kGangSms, kGangSms}, ++stream);
    }

    // One engine step (tick, then skip to the next event), counting
    // the allocations inside it; retired batches relaunch outside.
    std::size_t steps = 0;
    std::size_t retired = 0;
    std::size_t counted = 0;
    const auto step = [&] {
        const std::size_t before = heapAllocations;
        machine.tick();
        ++steps;
        const Cycle target =
            std::min(machine.nextEventCycle(), machine.now() + 1'000'000);
        if (target > machine.now() + 1) {
            machine.skipTo(target);
            ++steps;
        }
        counted += heapAllocations - before;
        for (unsigned g = 0; g < 3; ++g) {
            if (!machine.done(running[g]))
                continue;
            machine.take(running[g]);
            ++retired;
            running[g] = machine.launchStream(
                *batches[g], SmRange{g * kGangSms, kGangSms}, ++stream);
        }
    };

    // Warm-up: every gang retires and relaunches twice, so each queue,
    // slab and reused buffer has seen a full batch.
    while (retired < 6)
        step();

    // The window spans launch turnover too: every gang retires and
    // relaunches at least once more inside it.
    counted = 0;
    steps = 0;
    const std::size_t retired_before = retired;
    while (steps < 20'000 || retired < retired_before + 3)
        step();
    EXPECT_EQ(counted, 0u) << "over " << steps << " tick()/skipTo() calls";
}

} // namespace
} // namespace rcoal::sim
