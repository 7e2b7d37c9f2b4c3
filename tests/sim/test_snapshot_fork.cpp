/**
 * @file
 * Snapshot/fork determinism suite.
 *
 * Three families of guarantees, all expressed as byte identity:
 *  - reset-vs-fresh: GpuMachine::reset() leaves no residue — the
 *    snapshot of a reset machine equals that of a fresh one (the gate
 *    for the reset-path audit);
 *  - fork-vs-replay: restoring a warmed snapshot is indistinguishable
 *    from re-simulating the warm-up prefix, for observations,
 *    KernelStats, post-run machine state, telemetry exposition, and
 *    DRAM-protocol-checker verdicts;
 *  - schedule independence: the above holds across cycle-skipping
 *    on/off and any thread-pool worker count.
 *
 * Every test name matches the "*Snapshot*:*Fork*" TSan filter, so the
 * whole suite also runs under ThreadSanitizer in CI.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/attack/encryption_service.hpp"
#include "rcoal/common/thread_pool.hpp"
#include "rcoal/core/policy.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/telemetry/prometheus.hpp"
#include "rcoal/telemetry/registry.hpp"
#include "rcoal/telemetry/sampler.hpp"
#include "rcoal/trace/dram_checker.hpp"
#include "rcoal/workloads/aes_kernel.hpp"

namespace rcoal::sim {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

constexpr unsigned kLines = 8;
constexpr unsigned kWarmup = 2;
constexpr std::uint64_t kPlaintextSeed = 7;

GpuConfig
baseConfig()
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.seed = 42;
    cfg.numSms = 4;
    return cfg;
}

GpuConfig
hierarchyConfig(DramBackendKind backend)
{
    GpuConfig cfg = baseConfig();
    cfg.l1Enabled = true;
    cfg.l2Enabled = true;
    cfg.mshrEnabled = true;
    cfg.dramBackend = backend;
    return cfg;
}

/**
 * A test-local warm-up prefix: @p warmup AES launches on streams
 * 1..warmup with plaintexts from Rng::stream(@p plaintext_root, w).
 * Pure function of its arguments, so running it on a fresh machine is
 * the replay twin of restoring a snapshot taken after it.
 */
void
runTestWarmups(GpuMachine &machine, std::uint64_t plaintext_root,
               unsigned warmup)
{
    const SmRange range{0, machine.config().numSms};
    for (unsigned w = 0; w < warmup; ++w) {
        Rng rng = Rng::stream(plaintext_root, w);
        const auto plaintext = workloads::randomPlaintext(kLines, rng);
        workloads::AesGpuKernel kernel(plaintext, kKey,
                                       machine.config().warpSize);
        const auto id = machine.launchStream(kernel, range, w + 1);
        machine.runUntilDone(id);
        machine.take(id);
    }
}

/** The measured launch both fork and replay twins run (stream 1). */
sim::KernelStats
runMeasuredLaunch(GpuMachine &machine)
{
    Rng rng = Rng::stream(kPlaintextSeed, 0);
    const auto plaintext = workloads::randomPlaintext(kLines, rng);
    workloads::AesGpuKernel kernel(plaintext, kKey,
                                   machine.config().warpSize);
    const auto id = machine.launchStream(
        kernel, SmRange{0, machine.config().numSms}, 1);
    machine.runUntilDone(id);
    return machine.take(id);
}

void
expectObservationsIdentical(
    const std::vector<attack::EncryptionObservation> &a,
    const std::vector<attack::EncryptionObservation> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ciphertext, b[i].ciphertext) << "trial " << i;
        EXPECT_EQ(a[i].totalTime, b[i].totalTime) << "trial " << i;
        EXPECT_EQ(a[i].lastRoundTime, b[i].lastRoundTime)
            << "trial " << i;
        EXPECT_EQ(a[i].lastRoundAccesses, b[i].lastRoundAccesses)
            << "trial " << i;
        EXPECT_EQ(a[i].totalAccesses, b[i].totalAccesses)
            << "trial " << i;
    }
}

TEST(SnapshotFork, ResetMatchesFreshMachineByteForByte)
{
    const std::vector<GpuConfig> configs = {
        baseConfig(),
        hierarchyConfig(DramBackendKind::Gddr6),
        hierarchyConfig(DramBackendKind::Hbm2),
    };
    for (const GpuConfig &cfg : configs) {
        GpuMachine used(cfg);
        runTestWarmups(used, /*plaintext_root=*/19, /*warmup=*/3);
        used.reset();

        GpuMachine fresh(cfg);
        const MachineSnapshot after_reset = used.snapshot();
        const MachineSnapshot pristine = fresh.snapshot();
        EXPECT_TRUE(after_reset.byteEqual(pristine))
            << "reset() left residue (backend "
            << static_cast<int>(cfg.dramBackend) << ", hierarchy "
            << cfg.l1Enabled << ")";
    }
}

TEST(SnapshotFork, ResetWithCheckerMatchesFreshMachine)
{
    const GpuConfig cfg = hierarchyConfig(DramBackendKind::Hbm2);
    GpuMachine used(cfg);
    used.enableDramChecking(trace::DramProtocolChecker::Mode::Collect);
    runTestWarmups(used, /*plaintext_root=*/23, /*warmup=*/3);
    used.reset();

    GpuMachine fresh(cfg);
    fresh.enableDramChecking(trace::DramProtocolChecker::Mode::Collect);
    EXPECT_TRUE(used.snapshot().byteEqual(fresh.snapshot()));
}

TEST(SnapshotFork, ResetWithTelemetryMatchesFreshMachine)
{
    // A sampler attached through the warm-up; after reset() the
    // exposition must equal a fresh machine and sampler's, both before
    // and after the same measured launch.
    const GpuConfig cfg = hierarchyConfig(DramBackendKind::Hbm2);
    constexpr Cycle kInterval = 256;

    telemetry::MetricRegistry used_registry;
    telemetry::TelemetrySampler used_sampler(used_registry, kInterval);
    GpuMachine used(cfg);
    used.setTelemetry(&used_sampler);
    runTestWarmups(used, /*plaintext_root=*/23, /*warmup=*/3);
    used.reset();

    telemetry::MetricRegistry fresh_registry;
    telemetry::TelemetrySampler fresh_sampler(fresh_registry, kInterval);
    GpuMachine fresh(cfg);
    fresh.setTelemetry(&fresh_sampler);
    EXPECT_EQ(telemetry::renderPrometheus(used_registry),
              telemetry::renderPrometheus(fresh_registry));

    (void)runMeasuredLaunch(used);
    (void)runMeasuredLaunch(fresh);
    EXPECT_GT(fresh_sampler.samplesTaken(), 2u);
    EXPECT_EQ(telemetry::renderPrometheus(used_registry),
              telemetry::renderPrometheus(fresh_registry));
    EXPECT_EQ(used_sampler.seriesJson(), fresh_sampler.seriesJson());
}

TEST(SnapshotFork, RestoreRoundTripsTheArena)
{
    const GpuConfig cfg = hierarchyConfig(DramBackendKind::Gddr6);
    const MachineSnapshot warmed = attack::EncryptionService::
        warmedSnapshot(cfg, kKey, kLines, kPlaintextSeed, kWarmup);
    ASSERT_NE(warmed.arena, nullptr);

    const auto forked = GpuMachine::fork(warmed);
    EXPECT_TRUE(forked->quiescent());
    EXPECT_EQ(forked->launchCount(), kWarmup);
    EXPECT_TRUE(forked->snapshot().byteEqual(warmed));
}

TEST(SnapshotFork, ForkMatchesReplayStateAndStats)
{
    for (const bool skip : {true, false}) {
        GpuConfig cfg = hierarchyConfig(DramBackendKind::Gddr6);
        cfg.cycleSkipping = skip;

        GpuMachine warm(cfg);
        runTestWarmups(warm, /*plaintext_root=*/29, kWarmup);
        const MachineSnapshot snap = warm.snapshot();

        auto forked = GpuMachine::fork(snap);
        GpuMachine replayed(cfg);
        runTestWarmups(replayed, /*plaintext_root=*/29, kWarmup);

        const KernelStats fork_stats = runMeasuredLaunch(*forked);
        const KernelStats replay_stats = runMeasuredLaunch(replayed);

        EXPECT_EQ(fork_stats.cycles, replay_stats.cycles);
        EXPECT_EQ(fork_stats.warpInstructions,
                  replay_stats.warpInstructions);
        EXPECT_EQ(fork_stats.coalescedAccesses,
                  replay_stats.coalescedAccesses);
        EXPECT_EQ(fork_stats.loadAccesses, replay_stats.loadAccesses);
        EXPECT_EQ(fork_stats.storeAccesses, replay_stats.storeAccesses);
        EXPECT_EQ(fork_stats.lastRoundAccesses(),
                  replay_stats.lastRoundAccesses());
        EXPECT_EQ(fork_stats.lastRoundCycles(),
                  replay_stats.lastRoundCycles());

        // Stronger than stats equality: the machines end in the same
        // state, byte for byte — nothing downstream can diverge.
        EXPECT_TRUE(
            forked->snapshot().byteEqual(replayed.snapshot()))
            << "post-launch machine state diverged (skip " << skip
            << ")";
    }
}

TEST(SnapshotFork, ForkMatchesReplayAcrossHierarchyBackendSkipThreads)
{
    std::vector<GpuConfig> cells;
    cells.push_back(baseConfig()); // Flat hierarchy, GDDR5.
    cells.push_back(hierarchyConfig(DramBackendKind::Gddr6));
    cells.push_back(hierarchyConfig(DramBackendKind::Hbm2));
    // One randomized-coalescing cell so the per-launch RNG derivation
    // is exercised, not just the deterministic baseline.
    GpuConfig rss = hierarchyConfig(DramBackendKind::Gddr6);
    rss.policy = core::CoalescingPolicy::rss(8);
    cells.push_back(rss);

    ThreadPool pool(8);
    constexpr unsigned kSamples = 4;
    for (GpuConfig cfg : cells) {
        for (const bool skip : {true, false}) {
            cfg.cycleSkipping = skip;
            const auto fork_serial =
                attack::EncryptionService::collectSamplesShared(
                    cfg, kKey, kSamples, kLines, kPlaintextSeed,
                    kWarmup, attack::CollectMode::Fork, nullptr);
            const auto replay_serial =
                attack::EncryptionService::collectSamplesShared(
                    cfg, kKey, kSamples, kLines, kPlaintextSeed,
                    kWarmup, attack::CollectMode::Replay, nullptr);
            const auto fork_pooled =
                attack::EncryptionService::collectSamplesShared(
                    cfg, kKey, kSamples, kLines, kPlaintextSeed,
                    kWarmup, attack::CollectMode::Fork, &pool);
            const auto replay_pooled =
                attack::EncryptionService::collectSamplesShared(
                    cfg, kKey, kSamples, kLines, kPlaintextSeed,
                    kWarmup, attack::CollectMode::Replay, &pool);
            expectObservationsIdentical(fork_serial, replay_serial);
            expectObservationsIdentical(fork_serial, fork_pooled);
            expectObservationsIdentical(fork_serial, replay_pooled);
        }
    }
}

TEST(SnapshotFork, SoaSaturatedForkMatchesReplay)
{
    // Saturation-regime twin of ForkMatchesReplayStateAndStats: the
    // minimum-size PRT plus two-deep interconnect/DRAM queues keep the
    // SoA fast paths (pendingPrt stall, ldst backpressure) and the
    // ring-buffer queue hops hot through the warm-up prefix, so the
    // snapshot is taken from a machine that just drained a fully
    // backed-up pipeline. Byte identity must still hold.
    for (const bool skip : {true, false}) {
        GpuConfig cfg = baseConfig();
        cfg.prtEntries = cfg.warpSize;
        cfg.icnQueueDepth = 2;
        cfg.dramQueueDepth = 2;
        cfg.policy = core::CoalescingPolicy::rss(4, true);
        cfg.cycleSkipping = skip;

        GpuMachine warm(cfg);
        runTestWarmups(warm, /*plaintext_root=*/41, kWarmup);
        const MachineSnapshot snap = warm.snapshot();

        auto forked = GpuMachine::fork(snap);
        GpuMachine replayed(cfg);
        runTestWarmups(replayed, /*plaintext_root=*/41, kWarmup);
        EXPECT_TRUE(replayed.snapshot().byteEqual(snap))
            << "warm-up prefix diverged (skip " << skip << ")";

        const KernelStats fork_stats = runMeasuredLaunch(*forked);
        const KernelStats replay_stats = runMeasuredLaunch(replayed);
        EXPECT_EQ(fork_stats.cycles, replay_stats.cycles);
        EXPECT_GT(fork_stats.prtStallCycles, 0u)
            << "fixture not saturating";
        EXPECT_EQ(fork_stats.prtStallCycles,
                  replay_stats.prtStallCycles);
        EXPECT_EQ(fork_stats.icnStallCycles,
                  replay_stats.icnStallCycles);
        EXPECT_TRUE(forked->snapshot().byteEqual(replayed.snapshot()))
            << "post-launch machine state diverged (skip " << skip
            << ")";
    }
}

TEST(SnapshotFork, ZeroWarmupForkFallsBackToParallelCollection)
{
    const GpuConfig cfg = baseConfig();
    const auto shared =
        attack::EncryptionService::collectSamplesShared(
            cfg, kKey, 4, kLines, kPlaintextSeed, /*warmup=*/0,
            attack::CollectMode::Fork, nullptr);
    const auto parallel =
        attack::EncryptionService::collectSamplesParallel(
            cfg, kKey, 4, kLines, kPlaintextSeed, nullptr);
    expectObservationsIdentical(shared, parallel);
}

TEST(SnapshotFork, ForkTelemetryMatchesReplay)
{
    const GpuConfig cfg = hierarchyConfig(DramBackendKind::Gddr6);

    GpuMachine warm(cfg);
    runTestWarmups(warm, /*plaintext_root=*/31, kWarmup);
    const MachineSnapshot snap = warm.snapshot();

    // Attach telemetry only after the shared prefix — the contract the
    // collect and serve paths follow — then run the same measured
    // launch on both twins with a short interval so several samples
    // land inside it.
    constexpr Cycle kInterval = 256;
    const auto run_with_telemetry = [&](GpuMachine &machine) {
        telemetry::MetricRegistry registry;
        telemetry::TelemetrySampler sampler(registry, kInterval);
        machine.setTelemetry(&sampler);
        (void)runMeasuredLaunch(machine);
        machine.setTelemetry(nullptr);
        sampler.detachSources();
        return std::pair<std::string, std::string>(
            telemetry::renderPrometheus(registry),
            sampler.seriesJson());
    };

    auto forked = GpuMachine::fork(snap);
    GpuMachine replayed(cfg);
    runTestWarmups(replayed, /*plaintext_root=*/31, kWarmup);

    const auto fork_out = run_with_telemetry(*forked);
    const auto replay_out = run_with_telemetry(replayed);
    EXPECT_GT(fork_out.second.size(), 2u); // Non-trivial series JSON.
    EXPECT_EQ(fork_out.first, replay_out.first);
    EXPECT_EQ(fork_out.second, replay_out.second);
}

TEST(SnapshotFork, SpanStateRoundTripsThroughSnapshotRestore)
{
    const GpuConfig cfg = baseConfig();
    GpuMachine machine(cfg);
    spans::SpanCollector collector;
    machine.setSpanCollector(&collector);

    // In-flight span state at snapshot time: one finished span and one
    // still live (opened, stamped, not yet finished). Launch maps are
    // empty — the machine is quiescent — but live-span totals and the
    // slab must survive the round-trip.
    const std::uint32_t done = collector.openRequest();
    collector.stampRequest(done, spans::SpanStage::Queue, 0, 11);
    collector.finishRequest(done);
    const std::uint32_t live = collector.openRequest();
    collector.stampRequest(live, spans::SpanStage::Queue, 11, 40);
    runTestWarmups(machine, /*plaintext_root=*/43, kWarmup);
    const MachineSnapshot snap = machine.snapshot();

    GpuMachine twin(cfg);
    spans::SpanCollector twin_collector;
    twin.setSpanCollector(&twin_collector);
    twin.restore(snap);
    EXPECT_EQ(twin_collector.spansOpened(), 2u);
    EXPECT_EQ(twin_collector.spansFinished(), 1u);
    EXPECT_EQ(twin_collector.liveSpans(), 1u);
    EXPECT_TRUE(twin.snapshot().byteEqual(snap))
        << "span region did not re-serialize byte-identically";

    // The restored collector carries the in-flight totals and
    // continues the id sequence where the original left off.
    const spans::StageTotals totals = twin_collector.finishRequest(live);
    EXPECT_EQ(totals.cycles[static_cast<std::size_t>(
                  spans::SpanStage::Queue)],
              29u);
    EXPECT_EQ(twin_collector.openRequest(), 3u);
}

TEST(SnapshotFork, ResetClearsAttachedSpanCollector)
{
    const GpuConfig cfg = baseConfig();
    GpuMachine machine(cfg);
    spans::SpanCollector collector;
    machine.setSpanCollector(&collector);
    const std::uint32_t id = collector.openRequest();
    collector.stampRequest(id, spans::SpanStage::Queue, 0, 5);
    runTestWarmups(machine, /*plaintext_root=*/47, kWarmup);
    machine.reset();

    EXPECT_EQ(collector.spansOpened(), 0u);
    EXPECT_EQ(collector.liveSpans(), 0u);
    EXPECT_EQ(collector.slab().totalAppended(), 0u);

    // Reset machine + cleared collector snapshot exactly like a fresh
    // pair — the same audit the sink/checker reset paths pass.
    GpuMachine fresh(cfg);
    spans::SpanCollector fresh_collector;
    fresh.setSpanCollector(&fresh_collector);
    EXPECT_TRUE(machine.snapshot().byteEqual(fresh.snapshot()));
}

TEST(SnapshotFork, ForkCheckerVerdictsMatchReplay)
{
    const GpuConfig cfg = hierarchyConfig(DramBackendKind::Hbm2);

    GpuMachine warm(cfg);
    warm.enableDramChecking(trace::DramProtocolChecker::Mode::Collect);
    runTestWarmups(warm, /*plaintext_root=*/37, kWarmup);
    const MachineSnapshot snap = warm.snapshot();

    // fork() restores the checker configuration from the arena; the
    // replay twin enables it by hand before re-simulating the prefix.
    auto forked = GpuMachine::fork(snap);
    GpuMachine replayed(cfg);
    replayed.enableDramChecking(
        trace::DramProtocolChecker::Mode::Collect);
    runTestWarmups(replayed, /*plaintext_root=*/37, kWarmup);

    (void)runMeasuredLaunch(*forked);
    (void)runMeasuredLaunch(replayed);

    const auto &fork_checkers = forked->dramCheckers();
    const auto &replay_checkers = replayed.dramCheckers();
    ASSERT_EQ(fork_checkers.size(), replay_checkers.size());
    ASSERT_FALSE(fork_checkers.empty());
    std::uint64_t commands = 0;
    for (std::size_t p = 0; p < fork_checkers.size(); ++p) {
        const auto &fc = *fork_checkers[p];
        const auto &rc = *replay_checkers[p];
        EXPECT_EQ(fc.commandsChecked(), rc.commandsChecked())
            << "partition " << p;
        commands += fc.commandsChecked();
        ASSERT_EQ(fc.violations().size(), rc.violations().size())
            << "partition " << p;
        for (std::size_t v = 0; v < fc.violations().size(); ++v) {
            EXPECT_EQ(fc.violations()[v].rule,
                      rc.violations()[v].rule);
            EXPECT_EQ(fc.violations()[v].detail,
                      rc.violations()[v].detail);
            EXPECT_EQ(fc.violations()[v].cycle,
                      rc.violations()[v].cycle);
        }
        EXPECT_TRUE(fc.violations().empty())
            << fc.violations().front().rule << ": "
            << fc.violations().front().detail;
    }
    EXPECT_GT(commands, 0u);
}

/** A warmed machine's snapshot, with a collector of @p span_cfg. */
MachineSnapshot
spanSnapshot(const spans::SpanCollector::Config &span_cfg)
{
    GpuMachine machine(baseConfig());
    spans::SpanCollector collector(span_cfg);
    machine.setSpanCollector(&collector);
    collector.openRequest();
    runTestWarmups(machine, /*plaintext_root=*/53, kWarmup);
    return machine.snapshot();
}

TEST(SnapshotForkDeathTest, RestoreIntoDifferentStructurePanics)
{
    GpuMachine warm(baseConfig());
    runTestWarmups(warm, /*plaintext_root=*/59, kWarmup);
    const MachineSnapshot snap = warm.snapshot();
    GpuConfig other = baseConfig();
    other.numSms = 5;
    EXPECT_DEATH(
        {
            GpuMachine target(other);
            target.restore(snap);
        },
        "structurally different");
}

TEST(SnapshotForkDeathTest, RestoreWithTelemetryAttachedPanics)
{
    GpuMachine warm(baseConfig());
    const MachineSnapshot snap = warm.snapshot();
    EXPECT_DEATH(
        {
            GpuMachine target(baseConfig());
            telemetry::MetricRegistry registry;
            telemetry::TelemetrySampler sampler(registry, 256);
            target.setTelemetry(&sampler);
            target.restore(snap);
        },
        "before attaching telemetry");
}

TEST(SnapshotForkDeathTest, SpanSampleRateMismatchPanics)
{
    const MachineSnapshot snap = spanSnapshot({});
    spans::SpanCollector::Config other;
    other.sampleRate = 2;
    EXPECT_DEATH(
        {
            GpuMachine target(baseConfig());
            spans::SpanCollector collector(other);
            target.setSpanCollector(&collector);
            target.restore(snap);
        },
        "sample rate");
}

TEST(SnapshotForkDeathTest, SpanSlabCapacityMismatchPanics)
{
    spans::SpanCollector::Config small;
    small.slabCapacity = 8;
    const MachineSnapshot snap = spanSnapshot(small);
    spans::SpanCollector::Config other;
    other.slabCapacity = 16;
    EXPECT_DEATH(
        {
            GpuMachine target(baseConfig());
            spans::SpanCollector collector(other);
            target.setSpanCollector(&collector);
            target.restore(snap);
        },
        "capacity");
}

} // namespace
} // namespace rcoal::sim
