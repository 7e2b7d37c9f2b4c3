/**
 * @file
 * Cross-checks of the event-driven simulation core: fast-forwarding
 * over provably idle cycles must be byte-identical to single-stepping
 * — every KernelStats field, every trace-event stream, every attack
 * observation, for every coalescing policy and for multi-kernel serve
 * runs. These tests are the enforcement arm of the cycleSkipping
 * contract. Stepping ticks every component every cycle, so it is the
 * all-awake reference for the machine's wake calendar; CI additionally
 * runs the whole suite once with RCOAL_CYCLE_SKIPPING=0.
 */

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/attack/encryption_service.hpp"
#include "rcoal/serve/scheduler.hpp"
#include "rcoal/serve/server.hpp"
#include "rcoal/sim/gpu.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/trace/tracer.hpp"
#include "rcoal/workloads/aes_kernel.hpp"
#include "rcoal/workloads/micro_kernels.hpp"

namespace rcoal::sim {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/** The policy families the byte-identity contract must hold for. */
std::vector<core::CoalescingPolicy>
allPolicies()
{
    return {
        core::CoalescingPolicy::baseline(),
        core::CoalescingPolicy::fss(4),
        core::CoalescingPolicy::rss(4),
        core::CoalescingPolicy::rss(4, true),
    };
}

void
expectIdenticalStats(const KernelStats &a, const KernelStats &b,
                     const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.warpInstructions, b.warpInstructions) << label;
    EXPECT_EQ(a.memInstructions, b.memInstructions) << label;
    EXPECT_EQ(a.coalescedAccesses, b.coalescedAccesses) << label;
    EXPECT_EQ(a.loadAccesses, b.loadAccesses) << label;
    EXPECT_EQ(a.storeAccesses, b.storeAccesses) << label;
    for (std::size_t t = 0; t < a.perTag.size(); ++t) {
        EXPECT_EQ(a.perTag[t].accesses, b.perTag[t].accesses)
            << label << " tag " << t;
        EXPECT_EQ(a.perTag[t].laneRequests, b.perTag[t].laneRequests)
            << label << " tag " << t;
        EXPECT_EQ(a.perTag[t].firstIssue, b.perTag[t].firstIssue)
            << label << " tag " << t;
        EXPECT_EQ(a.perTag[t].lastComplete, b.perTag[t].lastComplete)
            << label << " tag " << t;
    }
    EXPECT_EQ(a.dramRowHits, b.dramRowHits) << label;
    EXPECT_EQ(a.dramRowMisses, b.dramRowMisses) << label;
    EXPECT_EQ(a.dramActivates, b.dramActivates) << label;
    EXPECT_EQ(a.dramPrecharges, b.dramPrecharges) << label;
    EXPECT_EQ(a.dramRefreshes, b.dramRefreshes) << label;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << label;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << label;
    EXPECT_EQ(a.l1SectorMisses, b.l1SectorMisses) << label;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.l2SectorMisses, b.l2SectorMisses) << label;
    EXPECT_EQ(a.mshrMerges, b.mshrMerges) << label;
    EXPECT_EQ(a.l2MshrMerges, b.l2MshrMerges) << label;
    EXPECT_EQ(a.prtStallCycles, b.prtStallCycles) << label;
    EXPECT_EQ(a.icnStallCycles, b.icnStallCycles) << label;
}

/** One AES launch of @p lines lines under @p cfg. */
KernelStats
launchAes(GpuConfig cfg, unsigned lines = 32)
{
    Gpu gpu(cfg);
    Rng rng = Rng::stream(7, 0);
    const auto plaintext = workloads::randomPlaintext(lines, rng);
    const workloads::AesGpuKernel kernel(plaintext, kKey, cfg.warpSize);
    return gpu.launch(kernel);
}

TEST(CycleSkipping, KernelStatsIdenticalAcrossPolicies)
{
    for (const auto &policy : allPolicies()) {
        GpuConfig cfg = GpuConfig::paperBaseline();
        cfg.policy = policy;

        cfg.cycleSkipping = false;
        const KernelStats stepped = launchAes(cfg);
        cfg.cycleSkipping = true;
        const KernelStats skipped = launchAes(cfg);

        expectIdenticalStats(stepped, skipped, policy.name());
    }
}

TEST(CycleSkipping, FastForwardsKernelWaitsAndIdleWindows)
{
    if (!resolveCycleSkipping(true))
        GTEST_SKIP() << "cycle skipping forced off process-wide";

    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.policy = core::CoalescingPolicy::rss(8, true);
    GpuMachine machine(cfg);
    ASSERT_TRUE(machine.cycleSkippingEnabled());

    Rng rng = Rng::stream(7, 0);
    const auto plaintext = workloads::randomPlaintext(32, rng);
    const workloads::AesGpuKernel kernel(plaintext, kKey, cfg.warpSize);
    const auto id = machine.launchStream(kernel, SmRange{0, cfg.numSms},
                                         /*rng_stream_index=*/1);
    machine.runUntilDone(id);
    const KernelStats stats = machine.take(id);

    // A dense AES kernel keeps the ldst queues and crossbars busy
    // almost every cycle, so in-kernel skipping only harvests the
    // scattered DRAM/interconnect waits — but it must harvest them.
    EXPECT_GT(stats.cycles, 0u);
    const Cycle in_kernel_skipped = machine.skippedCycles();
    EXPECT_GT(in_kernel_skipped, 0u);

    // The big win is idle windows (serve think times / arrival gaps):
    // an idle machine must cross them in O(1) steps, the way the serve
    // loop's event-driven sleep does.
    const Cycle gap_start = machine.now();
    const Cycle gap_end = gap_start + 4000;
    unsigned iterations = 0;
    while (machine.now() < gap_end) {
        machine.tick();
        const Cycle bound =
            std::min(machine.nextEventCycle(), gap_end);
        if (bound > machine.now() + 1)
            machine.skipTo(bound);
        ++iterations;
    }
    EXPECT_LE(iterations, 4u)
        << "idle window was stepped, not skipped";
    EXPECT_GE(machine.skippedCycles() - in_kernel_skipped, 3990u);
}

TEST(CycleSkipping, TraceEventStreamsIdentical)
{
    // With RCOAL_TRACE compiled out both runs record nothing and the
    // comparison is trivially true; with it compiled in, every sink's
    // retained event window must match event-for-event (the SM bound
    // pins per-cycle stepping whenever a stall event would be emitted).
    auto traced_run = [](bool skipping) {
        GpuConfig cfg = GpuConfig::paperBaseline();
        cfg.numSms = 4;
        cfg.policy = core::CoalescingPolicy::rss(4, true);
        cfg.cycleSkipping = skipping;
        auto tracer = std::make_unique<trace::Tracer>(1 << 14);
        GpuMachine machine(cfg);
        machine.setTracer(tracer.get());
        Rng rng = Rng::stream(7, 0);
        const auto plaintext = workloads::randomPlaintext(32, rng);
        const workloads::AesGpuKernel kernel(plaintext, kKey,
                                             cfg.warpSize);
        const auto id = machine.launchStream(kernel, SmRange{0, 4},
                                             /*rng_stream_index=*/1);
        machine.runUntilDone(id);
        (void)machine.take(id);
        machine.setTracer(nullptr);
        return tracer;
    };

    const auto stepped = traced_run(false);
    const auto skipped = traced_run(true);

    ASSERT_EQ(stepped->sinks().size(), skipped->sinks().size());
    for (std::size_t s = 0; s < stepped->sinks().size(); ++s) {
        const trace::TraceSink &a = *stepped->sinks()[s];
        const trace::TraceSink &b = *skipped->sinks()[s];
        ASSERT_EQ(a.name(), b.name());
        EXPECT_EQ(a.totalRecorded(), b.totalRecorded()) << a.name();
        const auto ea = a.snapshot();
        const auto eb = b.snapshot();
        ASSERT_EQ(ea.size(), eb.size()) << a.name();
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].cycle, eb[i].cycle)
                << a.name() << " event " << i;
            EXPECT_EQ(ea[i].kind, eb[i].kind)
                << a.name() << " event " << i;
            EXPECT_EQ(ea[i].a, eb[i].a) << a.name() << " event " << i;
            EXPECT_EQ(ea[i].b, eb[i].b) << a.name() << " event " << i;
            EXPECT_EQ(ea[i].c, eb[i].c) << a.name() << " event " << i;
        }
    }
}

TEST(CycleSkipping, AttackObservationsIdentical)
{
    // attackKey() is a pure function of the observation vector, so
    // byte-identical observations imply byte-identical attack results
    // for every measurement vector.
    for (const auto &policy : allPolicies()) {
        GpuConfig cfg = GpuConfig::paperBaseline();
        cfg.policy = policy;

        cfg.cycleSkipping = false;
        const auto stepped = attack::EncryptionService::
            collectSamplesParallel(cfg, kKey, /*samples=*/6,
                                   /*lines=*/32, /*plaintext_seed=*/7);
        cfg.cycleSkipping = true;
        const auto skipped = attack::EncryptionService::
            collectSamplesParallel(cfg, kKey, /*samples=*/6,
                                   /*lines=*/32, /*plaintext_seed=*/7);

        ASSERT_EQ(stepped.size(), skipped.size());
        for (std::size_t i = 0; i < stepped.size(); ++i) {
            const std::string label =
                policy.name() + " sample " + std::to_string(i);
            EXPECT_EQ(stepped[i].ciphertext, skipped[i].ciphertext)
                << label;
            EXPECT_EQ(stepped[i].totalTime, skipped[i].totalTime)
                << label;
            EXPECT_EQ(stepped[i].lastRoundTime, skipped[i].lastRoundTime)
                << label;
            EXPECT_EQ(stepped[i].lastRoundAccesses,
                      skipped[i].lastRoundAccesses)
                << label;
            EXPECT_EQ(stepped[i].totalAccesses, skipped[i].totalAccesses)
                << label;
        }
    }
}

// ---------------------------------------------------------------------
// Saturation-regime fixtures for the SoA scoreboard / ring-buffer hot
// path: shrink one queue at a time until warps spend most cycles parked
// on its backpressure, then require byte identity across skipping.
// Names carry "Soa" so the fixtures run under the CI TSan filter.

TEST(CycleSkipping, SoaSaturatedPrtIdenticalStats)
{
    // The minimum legal PRT (one entry per lane) keeps exactly one
    // fully-diverged load in flight per SM: every other ready warp hits
    // the PRT-stall fast path in tryIssue each scan, the regime the SoA
    // pendingPrt memoization exists for.
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.numSms = 4;
    cfg.prtEntries = cfg.warpSize;
    cfg.policy = core::CoalescingPolicy::rss(4, true);

    cfg.cycleSkipping = false;
    const KernelStats stepped = launchAes(cfg);
    cfg.cycleSkipping = true;
    const KernelStats skipped = launchAes(cfg);

    EXPECT_GT(stepped.prtStallCycles, 0u) << "fixture not saturating";
    expectIdenticalStats(stepped, skipped, "saturated PRT");
}

TEST(CycleSkipping, SoaSaturatedQueuesIdenticalStats)
{
    // Two-deep crossbar ports and DRAM queues back the pressure up
    // through the LD/ST ring into the issue stage: the ldst-capacity
    // fast path and the crossbar headTargets rescan run every cycle.
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.numSms = 4;
    cfg.icnQueueDepth = 2;
    cfg.dramQueueDepth = 2;
    cfg.policy = core::CoalescingPolicy::rss(4, true);

    cfg.cycleSkipping = false;
    const KernelStats stepped = launchAes(cfg);
    cfg.cycleSkipping = true;
    const KernelStats skipped = launchAes(cfg);

    EXPECT_GT(stepped.icnStallCycles, 0u) << "fixture not saturating";
    expectIdenticalStats(stepped, skipped, "saturated queues");
}

TEST(CycleSkipping, DramProtocolHoldsUnderSkipping)
{
    // Panic-mode checkers on every partition, with refresh enabled so
    // the lowest-frequency timing rule is in play: fast-forwarding must
    // never jump over (or reorder around) a DRAM timing obligation.
    auto checked_run = [](bool skipping) {
        GpuConfig cfg = GpuConfig::paperBaseline();
        cfg.numSms = 4;
        cfg.refreshEnabled = true;
        cfg.policy = core::CoalescingPolicy::rss(4, true);
        cfg.cycleSkipping = skipping;
        GpuMachine machine(cfg);
        machine.enableDramChecking();
        Rng rng = Rng::stream(7, 0);
        const auto plaintext = workloads::randomPlaintext(32, rng);
        const workloads::AesGpuKernel kernel(plaintext, kKey,
                                             cfg.warpSize);
        const auto id = machine.launchStream(kernel, SmRange{0, 4},
                                             /*rng_stream_index=*/1);
        machine.runUntilDone(id);
        std::pair<KernelStats, KernelStats> stats{
            machine.take(id), machine.memoryStats()};
        std::uint64_t commands = 0;
        for (const auto &checker : machine.dramCheckers())
            commands += checker->commandsChecked();
        EXPECT_GT(commands, 0u);
        return stats;
    };

    const auto stepped = checked_run(false);
    const auto skipped = checked_run(true);
    expectIdenticalStats(stepped.first, skipped.first, "launch");
    // DRAM row/refresh counters accumulate machine-level (shared
    // structures are not attributable to a tenant) — compare those too.
    expectIdenticalStats(stepped.second, skipped.second, "machine");
    EXPECT_GT(stepped.second.dramRefreshes, 0u);
}

// ---------------------------------------------------------------------
// Serve-layer cross-checks: the multi-kernel machine plus the serving
// frontend's own event-driven sleep.

serve::ServeConfig
smallServe(serve::BatchPolicy policy)
{
    serve::ServeConfig cfg;
    cfg.batchPolicy = policy;
    cfg.queueCapacity = 16;
    cfg.maxBatchRequests = 2;
    cfg.batchTimeoutCycles = 2000;
    cfg.smsPerKernel = 2; // Two gangs on a 4-SM device.
    return cfg;
}

void
expectIdenticalServeReports(const serve::ServeReport &a,
                            const serve::ServeReport &b)
{
    ASSERT_EQ(a.completed.size(), b.completed.size());
    for (std::size_t i = 0; i < a.completed.size(); ++i) {
        const auto &ca = a.completed[i];
        const auto &cb = b.completed[i];
        EXPECT_EQ(ca.id, cb.id) << "completion " << i;
        EXPECT_EQ(ca.arrival, cb.arrival) << "completion " << i;
        EXPECT_EQ(ca.launched, cb.launched) << "completion " << i;
        EXPECT_EQ(ca.completed, cb.completed) << "completion " << i;
        EXPECT_EQ(ca.ciphertext, cb.ciphertext) << "completion " << i;
        EXPECT_EQ(ca.kernelTotalTime, cb.kernelTotalTime)
            << "completion " << i;
        EXPECT_EQ(ca.kernelLastRoundTime, cb.kernelLastRoundTime)
            << "completion " << i;
        EXPECT_EQ(ca.kernelLastRoundAccesses,
                  cb.kernelLastRoundAccesses)
            << "completion " << i;
        EXPECT_EQ(ca.batchRequests, cb.batchRequests)
            << "completion " << i;
    }
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.kernelsLaunched, b.kernelsLaunched);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.maxBusySms, b.maxBusySms);
    EXPECT_DOUBLE_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_DOUBLE_EQ(a.meanBusySms, b.meanBusySms);
    EXPECT_EQ(a.probeLatency.p50, b.probeLatency.p50);
    EXPECT_EQ(a.probeLatency.p99, b.probeLatency.p99);
}

TEST(CycleSkipping, ServeRunIdenticalWithBackgroundLoad)
{
    // Multi-kernel: two gangs, closed-loop probes plus open-loop
    // background tenants, under the hold-for-timeout batch policy whose
    // deadline is a genuine non-machine event the sleep must honor.
    for (const auto policy :
         {serve::BatchPolicy::Fcfs, serve::BatchPolicy::BatchFill}) {
        serve::WorkloadSpec spec;
        spec.probeSamples = 4;
        spec.probeLines = 32;
        spec.probeSeed = 7;
        spec.probeThinkCycles = 100;
        spec.backgroundMeanGapCycles = 2000.0;
        spec.backgroundLineChoices = {32, 64};
        spec.backgroundSeed = 1234;

        GpuConfig gpu = GpuConfig::paperBaseline();
        gpu.numSms = 4;
        gpu.seed = 42;

        gpu.cycleSkipping = false;
        const serve::EncryptionServer stepped_server(
            gpu, smallServe(policy), kKey);
        const serve::ServeReport stepped = stepped_server.run(spec);

        gpu.cycleSkipping = true;
        const serve::EncryptionServer skipped_server(
            gpu, smallServe(policy), kKey);
        const serve::ServeReport skipped = skipped_server.run(spec);

        expectIdenticalServeReports(stepped, skipped);
    }
}

TEST(CycleSkipping, SchedulerCompletionInvariantAcrossPollIntervals)
{
    // Drive the multi-kernel scheduler by hand at poll intervals
    // 1/64/1000, fast-forwarding between polls when skipping is on. The
    // true completion stamps must be invariant to both knobs.
    auto run_with_poll = [](Cycle poll_interval, bool skipping) {
        GpuConfig gpu = GpuConfig::paperBaseline();
        gpu.numSms = 4;
        gpu.cycleSkipping = skipping;
        serve::KernelScheduler scheduler(
            gpu, smallServe(serve::BatchPolicy::Fcfs), kKey);

        // Two single-request batches, one per gang: concurrent kernels.
        for (std::uint64_t r = 0; r < 2; ++r) {
            Rng rng = Rng::stream(7, r);
            serve::Request request;
            request.id = r;
            request.arrival = 0;
            request.isProbe = true;
            request.clientId = static_cast<int>(r);
            request.plaintext = workloads::randomPlaintext(32, rng);
            std::vector<serve::Request> batch;
            batch.push_back(std::move(request));
            EXPECT_TRUE(scheduler.gangFree());
            scheduler.launchBatch(std::move(batch), 0);
        }

        std::vector<Cycle> stamps;
        sim::GpuMachine &machine = scheduler.gpu();
        for (Cycle now = 0; now <= 500000 && stamps.size() < 2;) {
            if (now % poll_interval == 0) {
                for (const auto &done : scheduler.collectCompleted(now))
                    stamps.push_back(done.completed);
            }
            scheduler.tick();
            ++now;
            if (machine.cycleSkippingEnabled() &&
                !machine.anyCompletedUntaken()) {
                const Cycle next_poll =
                    (now / poll_interval + 1) * poll_interval;
                const Cycle target =
                    std::min(machine.nextEventCycle(), next_poll);
                if (target > now + 1)
                    now += machine.skipTo(target);
            }
        }
        EXPECT_EQ(stamps.size(), 2u) << "kernels never completed";
        // A coarse poll can pick up both kernels at once, in scheduler
        // bookkeeping order; the invariant is the stamp multiset.
        std::sort(stamps.begin(), stamps.end());
        return stamps;
    };

    const auto reference = run_with_poll(1, false);
    ASSERT_EQ(reference.size(), 2u);
    for (const Cycle interval : {Cycle{1}, Cycle{64}, Cycle{1000}}) {
        for (const bool skipping : {false, true}) {
            EXPECT_EQ(run_with_poll(interval, skipping), reference)
                << "interval " << interval << " skipping " << skipping;
        }
    }
}

// ---------------------------------------------------------------------
// Seeded random configurations: the calendar must be exact for every
// mix of SM count, partitions, queue depths, backend, refresh, caches,
// MSHRs, scheduler, policy, latency and clock ratio, not only for the
// hand-picked fixtures above.

/** One random valid machine configuration drawn from @p rng. */
GpuConfig
randomConfig(Rng &rng)
{
    const auto pick = [&rng](auto... options) {
        const std::array values{options...};
        return values[rng.below(values.size())];
    };
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.numSms = 3 + static_cast<unsigned>(rng.below(6));
    cfg.numPartitions = 1 + static_cast<unsigned>(rng.below(6));
    cfg.icnQueueDepth = 2 + rng.below(7);
    cfg.icnLatency = pick(0u, 1u, 8u);
    cfg.dramQueueDepth = pick(std::size_t{4}, std::size_t{8},
                              std::size_t{32});
    cfg.memClockMhz = pick(924.0, 1750.0);
    cfg.dramBackend = pick(DramBackendKind::Gddr5, DramBackendKind::Gddr6,
                           DramBackendKind::Hbm2);
    cfg.refreshEnabled = rng.chance(0.5);
    cfg.l1Enabled = rng.chance(0.5);
    cfg.l2Enabled = rng.chance(0.5);
    cfg.mshrEnabled = rng.chance(0.5);
    cfg.prtEntries = pick(std::size_t{32}, std::size_t{64},
                          std::size_t{256});
    cfg.scheduler = pick(SchedulerPolicy::LooseRoundRobin,
                         SchedulerPolicy::GreedyThenOldest);
    cfg.policy = allPolicies()[rng.below(allPolicies().size())];
    cfg.seed = rng.next64();
    cfg.validate();
    return cfg;
}

/** Everything a random cell's run must reproduce across skip modes. */
struct RandomCellRun
{
    GpuConfig config;
    std::vector<KernelStats> launches;
    std::vector<Cycle> finishCycles;
    std::vector<KernelStats> samples; ///< cumulativeStats() every 97.
    KernelStats memory;
    Cycle endCycle = 0;
};

/**
 * Cell @p seed: 2-3 micro or AES launches on disjoint gangs of a random
 * machine, each starting at its own random cycle, sampled every 97
 * cycles. With skipping on, the loop skips to the next machine event,
 * launch or sample, the way the serve frontend does.
 */
RandomCellRun
runRandomCell(std::uint64_t seed, bool skipping)
{
    Rng rng = Rng::stream(0x5eed'ca1e, seed);
    RandomCellRun run;
    run.config = randomConfig(rng);
    run.config.cycleSkipping = skipping;
    const GpuConfig &cfg = run.config;

    const unsigned gangs = 2 + static_cast<unsigned>(rng.below(2));
    const unsigned gang_sms = cfg.numSms / gangs;
    std::vector<std::unique_ptr<KernelSource>> kernels;
    std::vector<Cycle> starts;
    for (unsigned g = 0; g < gangs; ++g) {
        const unsigned warps =
            gang_sms * (2 + static_cast<unsigned>(rng.below(7)));
        const unsigned loads = 4 + static_cast<unsigned>(rng.below(13));
        switch (rng.below(4)) {
          case 0: {
            Rng text_rng = Rng::stream(seed, g);
            kernels.push_back(std::make_unique<workloads::AesGpuKernel>(
                workloads::randomPlaintext(warps * cfg.warpSize, text_rng),
                kKey, cfg.warpSize));
            break;
          }
          case 1:
            kernels.push_back(workloads::makeRandomKernel(
                warps, loads, cfg.warpSize, 1 << 14, rng));
            break;
          case 2:
            kernels.push_back(workloads::makeStridedKernel(
                warps, loads, cfg.warpSize, 256));
            break;
          default:
            kernels.push_back(
                workloads::makeDivergentKernel(warps, cfg.warpSize, rng));
            break;
        }
        starts.push_back(rng.below(3000));
    }

    // Forced, so the oracle compares both modes under any
    // RCOAL_CYCLE_SKIPPING.
    setCycleSkippingOverride(skipping ? 1 : 0);
    GpuMachine machine(cfg);
    setCycleSkippingOverride(-1);
    EXPECT_EQ(machine.cycleSkippingEnabled(), skipping);
    std::vector<GpuMachine::LaunchId> ids(gangs, 0);
    constexpr Cycle kSampleEvery = 97;
    Cycle next_sample = kSampleEvery;
    const auto all_done = [&] {
        return std::all_of(ids.begin(), ids.end(), [&](auto id) {
            return id != 0 && machine.done(id);
        });
    };
    for (;;) {
        Cycle launch_bound = kInvalidCycle; // Tick of the next launch.
        for (unsigned g = 0; g < gangs; ++g) {
            if (ids[g] == 0 && starts[g] <= machine.now()) {
                ids[g] = machine.launchStream(
                    *kernels[g], SmRange{g * gang_sms, gang_sms}, g + 1);
            } else if (ids[g] == 0) {
                launch_bound = std::min(launch_bound, starts[g] + 1);
            }
        }
        machine.tick();
        if (machine.now() == next_sample) {
            run.samples.push_back(machine.cumulativeStats());
            next_sample += kSampleEvery;
        }
        if (all_done())
            break;
        if (!skipping)
            continue;
        const Cycle target =
            std::min({machine.nextEventCycle(), launch_bound, next_sample,
                      machine.now() + 1'000'000});
        if (target > machine.now() + 1)
            machine.skipTo(target);
    }
    for (const auto id : ids) {
        run.finishCycles.push_back(machine.finishCycle(id));
        run.launches.push_back(machine.take(id));
    }
    run.memory = machine.memoryStats();
    run.endCycle = machine.now();
    return run;
}

TEST(CycleSkipping, RandomConfigsStepIdentically)
{
    constexpr std::uint64_t kCells = 48;
    for (std::uint64_t seed = 1; seed <= kCells; ++seed) {
        const RandomCellRun stepped = runRandomCell(seed, false);
        const RandomCellRun skipped = runRandomCell(seed, true);
        const GpuConfig &cfg = stepped.config;
        const std::string cell =
            "seed " + std::to_string(seed) + " (" +
            std::to_string(cfg.numSms) + " SMs, " +
            std::to_string(cfg.numPartitions) + " partitions, " +
            cfg.policy.name() + ")";
        ASSERT_EQ(stepped.launches.size(), skipped.launches.size()) << cell;
        for (std::size_t l = 0; l < stepped.launches.size(); ++l) {
            const std::string label = cell + " launch " + std::to_string(l);
            expectIdenticalStats(stepped.launches[l], skipped.launches[l],
                                 label);
            EXPECT_EQ(stepped.finishCycles[l], skipped.finishCycles[l])
                << label;
        }
        expectIdenticalStats(stepped.memory, skipped.memory,
                             cell + " memory");
        ASSERT_EQ(stepped.samples.size(), skipped.samples.size()) << cell;
        for (std::size_t i = 0; i < stepped.samples.size(); ++i) {
            expectIdenticalStats(stepped.samples[i], skipped.samples[i],
                                 cell + " sample " + std::to_string(i));
        }
        EXPECT_EQ(stepped.endCycle, skipped.endCycle) << cell;
        if (HasFailure())
            return; // The first failing seed is the one to replay.
    }
}

} // namespace
} // namespace rcoal::sim
