/**
 * @file
 * google-benchmark microbenchmarks of the core components: coalescer
 * (random and AES T-table lanes), partition sampling, T-table AES, DRAM
 * model, attack estimation and full key recovery, a full 32-line kernel
 * launch, and GpuMachine tick throughput (idle / PRT-saturated /
 * DRAM-saturated / crossbar-saturated / cache-saturated, and the serve
 * regime's three concurrent batches, with and without cycle skipping).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "rcoal/aes/ttable.hpp"
#include "rcoal/attack/correlation_attack.hpp"
#include "rcoal/core/coalescer.hpp"
#include "rcoal/core/partitioner.hpp"
#include "rcoal/mem/sectored_cache.hpp"
#include "rcoal/sim/dram.hpp"
#include "rcoal/sim/gpu.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/workloads/aes_kernel.hpp"
#include "support/bench_support.hpp"
#include "support/slab_ports.hpp"

namespace {

using namespace rcoal;

/** 32 lanes over 16 random 64-byte blocks. */
std::vector<core::LaneRequest>
randomLanes(Rng &rng)
{
    std::vector<core::LaneRequest> lanes(32);
    for (ThreadId t = 0; t < 32; ++t)
        lanes[t] = {t, 0x1000 + rng.below(16) * 64, 4, true};
    return lanes;
}

/**
 * AES last-round lookups: each lane reads a random 4-byte entry of the
 * 1 KiB T4 table, as the AES kernel's warps do.
 */
std::vector<core::LaneRequest>
tTableLanes(Rng &rng)
{
    std::vector<core::LaneRequest> lanes(32);
    for (ThreadId t = 0; t < 32; ++t)
        lanes[t] = {t, 0x1c00 + rng.below(256) * 4, 4, true};
    return lanes;
}

/** coalesceInto() into one reused output vector, as the SM calls it. */
void
coalesceLoop(benchmark::State &state,
             const std::vector<core::LaneRequest> &lanes,
             const core::SubwarpPartition &partition)
{
    const core::Coalescer coalescer(64);
    std::vector<core::CoalescedAccess> out;
    for (auto _ : state) {
        coalescer.coalesceInto(lanes, partition, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}

core::SubwarpPartition
rssRts8Partition(Rng &rng)
{
    return core::SubwarpPartitioner(core::CoalescingPolicy::rss(8, true), 32)
        .draw(rng);
}

void
BM_CoalesceBaseline(benchmark::State &state)
{
    Rng rng(1);
    coalesceLoop(state, randomLanes(rng), core::SubwarpPartition::single(32));
}
BENCHMARK(BM_CoalesceBaseline);

void
BM_CoalesceRssRts8(benchmark::State &state)
{
    Rng rng(2);
    const auto lanes = randomLanes(rng);
    coalesceLoop(state, lanes, rssRts8Partition(rng));
}
BENCHMARK(BM_CoalesceRssRts8);

void
BM_CoalesceTTableBaseline(benchmark::State &state)
{
    Rng rng(1);
    coalesceLoop(state, tTableLanes(rng), core::SubwarpPartition::single(32));
}
BENCHMARK(BM_CoalesceTTableBaseline);

void
BM_CoalesceTTableRssRts8(benchmark::State &state)
{
    Rng rng(2);
    const auto lanes = tTableLanes(rng);
    coalesceLoop(state, lanes, rssRts8Partition(rng));
}
BENCHMARK(BM_CoalesceTTableRssRts8);

void
BM_PartitionDraw(benchmark::State &state)
{
    Rng rng(3);
    core::SubwarpPartitioner partitioner(
        core::CoalescingPolicy::rss(static_cast<unsigned>(state.range(0)),
                                    true),
        32);
    for (auto _ : state)
        benchmark::DoNotOptimize(partitioner.draw(rng));
}
BENCHMARK(BM_PartitionDraw)->Arg(2)->Arg(8)->Arg(32);

void
BM_TTableEncryptTraced(benchmark::State &state)
{
    const aes::TTableAes cipher(bench::victimKey());
    aes::Block block{};
    std::uint8_t counter = 0;
    for (auto _ : state) {
        block[0] = ++counter;
        std::vector<aes::TableLookup> trace;
        benchmark::DoNotOptimize(
            cipher.encryptBlockTraced(block, trace));
    }
}
BENCHMARK(BM_TTableEncryptTraced);

/**
 * One partition draining 64 random requests through a full queue. Arg
 * is the DramBackendKind (0 = GDDR5, 2 = HBM2's two pseudo-channels).
 */
void
BM_DramPartitionDrain(benchmark::State &state)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.dramBackend = static_cast<sim::DramBackendKind>(state.range(0));
    const sim::AddressMapping mapping(cfg);
    Rng rng(4);
    for (auto _ : state) {
        sim::KernelStats stats;
        test::SlabPorts ports(2 * cfg.dramQueueDepth);
        sim::DramPartition dram(cfg, 0, &stats, ports.slab);
        Cycle now = 0;
        unsigned completed = 0;
        unsigned injected = 0;
        while (completed < 64) {
            if (injected < 64 && dram.canAccept()) {
                sim::MemoryAccess access;
                access.id = injected;
                access.blockAddr = (rng.below(512) * 6) * 256;
                ports.enqueue(dram, access,
                              mapping.decode(access.blockAddr));
                ++injected;
            }
            dram.tick(++now);
            while (dram.hasCompleted()) {
                ports.takeCompleted(dram);
                ++completed;
            }
        }
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_DramPartitionDrain)
    ->Arg(static_cast<int>(sim::DramBackendKind::Gddr5))
    ->Arg(static_cast<int>(sim::DramBackendKind::Hbm2));

void
BM_AttackEstimate(benchmark::State &state)
{
    attack::AttackConfig cfg;
    cfg.assumedPolicy = core::CoalescingPolicy::rss(8, true);
    attack::CorrelationAttack attacker(cfg);
    Rng data_rng(5);
    std::vector<aes::Block> lines(32);
    for (auto &line : lines) {
        for (auto &b : line)
            b = static_cast<std::uint8_t>(data_rng.below(256));
    }
    Rng rng(6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            attacker.estimateLastRoundAccesses(lines, 0, 0x42, rng));
    }
}
BENCHMARK(BM_AttackEstimate);

/**
 * Full defense-aware key recovery: attackKey over 150 synthetic 32-line
 * observations assuming RSS+RTS(M=8), i.e. 16 x 256 x 150 partition
 * draws and estimates plus 4096 correlations per iteration.
 */
void
BM_AttackKeyRssRts8(benchmark::State &state)
{
    attack::AttackConfig cfg;
    cfg.assumedPolicy = core::CoalescingPolicy::rss(8, true);
    const attack::CorrelationAttack attacker(cfg);
    Rng data_rng(7);
    std::vector<attack::EncryptionObservation> observations(150);
    for (auto &obs : observations) {
        obs.ciphertext.resize(32);
        for (auto &line : obs.ciphertext) {
            for (auto &b : line)
                b = static_cast<std::uint8_t>(data_rng.below(256));
        }
        obs.lastRoundTime = data_rng.normal(400.0, 25.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            attacker.attackKey(observations, aes::Block{}));
    }
}
BENCHMARK(BM_AttackKeyRssRts8)->Unit(benchmark::kMillisecond);

/**
 * Simulated core cycles per wall second on an idle machine: the floor
 * cost of the main loop. Arg(0) steps every cycle; Arg(1) fast-forwards
 * in nextEventCycle()-bounded strides like runUntilDone does (clamped
 * to 4096-cycle hops so one benchmark iteration stays bounded).
 */
void
BM_MachineTickIdle(benchmark::State &state)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.cycleSkipping = state.range(0) != 0;
    auto machine = std::make_unique<sim::GpuMachine>(cfg);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        if (machine->now() > 1'000'000'000) {
            // Stay far away from the machine's deadlock cycle cap.
            state.PauseTiming();
            machine = std::make_unique<sim::GpuMachine>(cfg);
            state.ResumeTiming();
        }
        const Cycle before = machine->now();
        machine->tick();
        if (machine->cycleSkippingEnabled()) {
            const Cycle target = std::min(machine->nextEventCycle(),
                                          machine->now() + 4096);
            if (target > machine->now() + 1)
                machine->skipTo(target);
        }
        cycles += machine->now() - before;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_MachineTickIdle)->Arg(0)->Arg(1);

/**
 * Shared body of the saturated-machine benchmarks: run @p kernel to
 * completion per iteration and report simulated cycles per second. Arg
 * toggles cycle skipping.
 */
void
runKernelBench(benchmark::State &state, sim::GpuConfig cfg,
               const sim::KernelSource &kernel)
{
    cfg.cycleSkipping = state.range(0) != 0;
    cfg.seed = 11;
    sim::Gpu gpu(cfg);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const sim::KernelStats stats = gpu.launch(kernel);
        cycles += stats.cycles;
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}

/** runKernelBench() on the 32-line AES kernel. */
void
runSaturatedMachineBench(benchmark::State &state, const sim::GpuConfig &cfg)
{
    Rng rng(12);
    const auto plaintext = workloads::randomPlaintext(32, rng);
    const workloads::AesGpuKernel kernel(plaintext, bench::victimKey(),
                                         cfg.warpSize);
    runKernelBench(state, cfg, kernel);
}

/** PRT-starved machine: every divergent load stalls on PRT capacity. */
void
BM_MachinePrtSaturated(benchmark::State &state)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.prtEntries = cfg.warpSize;
    cfg.policy = core::CoalescingPolicy::rss(8, true);
    runSaturatedMachineBench(state, cfg);
}
BENCHMARK(BM_MachinePrtSaturated)->Arg(0)->Arg(1);

/** One memory partition: all traffic contends on a single controller. */
void
BM_MachineDramSaturated(benchmark::State &state)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.numPartitions = 1;
    runSaturatedMachineBench(state, cfg);
}
BENCHMARK(BM_MachineDramSaturated)->Arg(0)->Arg(1);

/**
 * Crossbar-starved machine: two-deep ports into a single partition keep
 * every input queue backed up, so the per-tick cost is dominated by the
 * output-major headTargets arbitration and the backpressure rescans the
 * SlotRing/slot-index rewrite targets.
 */
void
BM_MachineXbarSaturated(benchmark::State &state)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.numPartitions = 1;
    cfg.icnQueueDepth = 2;
    cfg.dramQueueDepth = 2;
    runSaturatedMachineBench(state, cfg);
}
BENCHMARK(BM_MachineXbarSaturated)->Arg(0)->Arg(1);

/**
 * Request-crossbar-input-starved machine: four warps on each of the 15
 * SMs issue fully divergent loads (32 lanes, 32 distinct 256-byte
 * chunks, so every partition is hit), and each load's 32 accesses
 * outrun the SM's input port, which stays full. Most SM ticks then only
 * repeat an ICN stall: the regime the machine's SM wake set skips.
 */
void
BM_MachineIcnSaturated(benchmark::State &state)
{
    const sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    constexpr unsigned kLoadsPerWarp = 8;
    const unsigned warps = cfg.numSms * 4;
    std::vector<std::vector<sim::WarpInstruction>> traces(warps);
    for (unsigned w = 0; w < warps; ++w) {
        for (unsigned i = 0; i < kLoadsPerWarp; ++i) {
            std::vector<core::LaneRequest> lanes(cfg.warpSize);
            for (ThreadId t = 0; t < cfg.warpSize; ++t) {
                const Addr chunk = (Addr{w} * kLoadsPerWarp + i) *
                                       cfg.warpSize +
                                   t;
                lanes[t] = {t, chunk * cfg.partitionInterleaveBytes, 4,
                            true};
            }
            traces[w].push_back(sim::WarpInstruction::load(
                std::move(lanes), sim::AccessTag::Generic));
        }
    }
    const sim::VectorKernel kernel(std::move(traces), "icn_saturated");
    runKernelBench(state, cfg, kernel);
}
BENCHMARK(BM_MachineIcnSaturated)->Arg(0)->Arg(1);

/**
 * The serve regime without the frontend: three concurrent five-SM BASE
 * AES batches of 320 lines (four mean-size serve requests each) on the
 * Table I machine, so the DRAM queues hold long runs of bursts in
 * flight and warps stall on the PRT. Arg toggles cycle skipping.
 */
void
BM_MachineServeSaturated(benchmark::State &state)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.cycleSkipping = state.range(0) != 0;
    cfg.seed = 11;
    sim::GpuMachine machine(cfg);
    constexpr unsigned kGangs = 3;
    constexpr unsigned kGangSms = 5;
    std::vector<std::unique_ptr<workloads::AesGpuKernel>> batches;
    for (unsigned g = 0; g < kGangs; ++g) {
        Rng rng(20 + g);
        batches.push_back(std::make_unique<workloads::AesGpuKernel>(
            workloads::randomPlaintext(320, rng), bench::victimKey(),
            cfg.warpSize));
    }
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const Cycle start = machine.now();
        std::vector<sim::GpuMachine::LaunchId> ids;
        for (unsigned g = 0; g < kGangs; ++g) {
            ids.push_back(machine.launch(
                *batches[g], sim::SmRange{g * kGangSms, kGangSms}));
        }
        std::size_t taken = 0;
        while (taken < ids.size()) {
            machine.tick();
            for (auto &id : ids) {
                if (id != ~sim::GpuMachine::LaunchId{0} && machine.done(id)) {
                    benchmark::DoNotOptimize(machine.take(id));
                    id = ~sim::GpuMachine::LaunchId{0};
                    ++taken;
                }
            }
            if (!machine.cycleSkippingEnabled() || taken == ids.size())
                continue;
            const Cycle target = std::min(machine.nextEventCycle(),
                                          machine.now() + 4096);
            if (target > machine.now() + 1)
                machine.skipTo(target);
        }
        cycles += machine.now() - start;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_MachineServeSaturated)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Raw tag-array throughput of the sectored cache on a mixed
 * hit/sector-miss/line-miss stream. This is the structure whose inline
 * age-counter LRU replaced the per-set std::list (which allocated on
 * every fill); the machine-tick benchmarks below gate the end-to-end
 * effect.
 */
void
BM_SectoredCacheAccessFill(benchmark::State &state)
{
    mem::SectoredCache cache(sim::CacheGeometry{});
    Rng rng(13);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        const Addr addr = rng.below(4096) * 32;
        if (cache.access(addr, 32) != mem::AccessOutcome::Hit)
            cache.fill(addr, 32);
        ++ops;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_SectoredCacheAccessFill);

/** Caches + MSHRs on: the L1/L2 lookup path on every LD/ST drain. */
void
BM_MachineCacheSaturated(benchmark::State &state)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.l1Enabled = true;
    cfg.l2Enabled = true;
    cfg.mshrEnabled = true;
    runSaturatedMachineBench(state, cfg);
}
BENCHMARK(BM_MachineCacheSaturated)->Arg(0)->Arg(1);

void
BM_AesKernelLaunch32Lines(benchmark::State &state)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.seed = 9;
    sim::Gpu gpu(cfg);
    Rng rng(10);
    const auto plaintext = workloads::randomPlaintext(32, rng);
    const workloads::AesGpuKernel kernel(plaintext, bench::victimKey(),
                                         cfg.warpSize);
    for (auto _ : state)
        benchmark::DoNotOptimize(gpu.launch(kernel));
}
BENCHMARK(BM_AesKernelLaunch32Lines);

} // namespace

BENCHMARK_MAIN();
