/**
 * @file
 * The telemetry determinism contract: exposition text and recorded
 * time series are byte-identical whether cycle skipping is on or off,
 * across reruns, and regardless of what sibling scenarios run on
 * other threads.  These suites are named Telemetry* so CI's TSan
 * filter picks them up alongside the serve suites.
 */

#include <array>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "rcoal/common/rng.hpp"
#include "rcoal/fleet/fleet.hpp"
#include "rcoal/serve/server.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"
#include "rcoal/telemetry/prometheus.hpp"
#include "rcoal/telemetry/registry.hpp"
#include "rcoal/telemetry/sampler.hpp"
#include "rcoal/workloads/aes_kernel.hpp"

namespace rcoal::telemetry {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/** Exposition + series of one sampled single-kernel machine run. */
std::pair<std::string, std::string>
machineRun(bool skipping)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.numSms = 4;
    cfg.policy = core::CoalescingPolicy::rss(4, true);
    cfg.cycleSkipping = skipping;

    MetricRegistry registry;
    TelemetrySampler sampler(registry, /*interval_cycles=*/250);
    sim::GpuMachine machine(cfg);
    machine.setTelemetry(&sampler);

    Rng rng = Rng::stream(7, 0);
    const auto plaintext = workloads::randomPlaintext(64, rng);
    const workloads::AesGpuKernel kernel(plaintext, kKey, cfg.warpSize);
    const auto id = machine.launchStream(kernel, sim::SmRange{0, 4},
                                         /*rng_stream_index=*/1);
    machine.runUntilDone(id);
    (void)machine.take(id);

    sampler.collect(machine.now());
    sampler.detachSources();
    machine.setTelemetry(nullptr);
    EXPECT_GT(sampler.samplesTaken(), 0u);
    return {renderPrometheus(registry), sampler.seriesJson()};
}

TEST(TelemetryDeterminism, MachineExpositionIdenticalAcrossSkipModes)
{
    const auto stepped = machineRun(false);
    const auto skipped = machineRun(true);
    EXPECT_EQ(stepped.first, skipped.first);
    EXPECT_EQ(stepped.second, skipped.second);
    // And the shared exposition is well-formed.
    const auto lint = lintPrometheus(skipped.first);
    EXPECT_FALSE(lint.has_value()) << *lint;
}

/** Exposition + series of one telemetry-attached serve run. */
std::pair<std::string, std::string>
serveRun(bool skipping, std::uint64_t probe_seed = 7)
{
    sim::GpuConfig gpu = sim::GpuConfig::paperBaseline();
    gpu.numSms = 4;
    gpu.seed = 42;
    gpu.cycleSkipping = skipping;

    serve::ServeConfig cfg;
    cfg.queueCapacity = 16;
    cfg.maxBatchRequests = 2;
    cfg.batchTimeoutCycles = 2000;
    cfg.smsPerKernel = 2;

    serve::WorkloadSpec spec;
    spec.probeSamples = 6;
    spec.probeLines = 32;
    spec.probeSeed = probe_seed;
    spec.probeThinkCycles = 400;
    spec.backgroundMeanGapCycles = 6000.0;
    spec.backgroundLineChoices = {32};
    spec.backgroundSeed = 1234;

    MetricRegistry registry;
    TelemetrySampler sampler(registry, /*interval_cycles=*/1000);
    LeakageAuditor auditor(registry, LeakageAuditor::Config{});
    const serve::ServeTelemetry telemetry{&sampler, &auditor};

    const serve::EncryptionServer server(gpu, cfg, kKey);
    (void)server.run(spec, /*tracer=*/nullptr, &telemetry);
    return {renderPrometheus(registry), sampler.seriesJson()};
}

TEST(TelemetryDeterminism, ServeExpositionIdenticalAcrossSkipModes)
{
    const auto stepped = serveRun(false);
    const auto skipped = serveRun(true);
    EXPECT_EQ(stepped.first, skipped.first);
    EXPECT_EQ(stepped.second, skipped.second);
    const auto lint = lintPrometheus(skipped.first);
    EXPECT_FALSE(lint.has_value()) << *lint;
}

/** Exposition + series of one telemetry-attached autoscaled fleet run. */
std::pair<std::string, std::string>
fleetRun(bool skipping)
{
    sim::GpuConfig gpu = sim::GpuConfig::paperBaseline();
    gpu.numSms = 4;
    gpu.seed = 42;
    gpu.cycleSkipping = skipping;

    serve::ServeConfig serve_cfg;
    serve_cfg.queueCapacity = 16;
    serve_cfg.maxBatchRequests = 2;
    serve_cfg.smsPerKernel = 2;

    fleet::FleetConfig cfg;
    cfg.numReplicas = 3;
    cfg.routing = fleet::RoutingPolicy::JoinShortestQueue;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.evalIntervalCycles = 10'000;
    cfg.autoscaler.queueDepthSlo = 2.0;
    cfg.autoscaler.scaleDownQueueDepth = 0.25;
    cfg.autoscaler.cooldownCycles = 0;

    fleet::FleetWorkloadSpec spec;
    spec.probeSamples = 6;
    spec.probeLines = 32;
    spec.probeSeed = 7;
    spec.probeThinkCycles = 100;
    spec.tenants.tenants = 3;
    spec.tenants.baseMeanGapCycles = 2500.0;
    spec.tenants.lineChoices = {32};
    spec.tenants.seed = 99;

    MetricRegistry registry;
    TelemetrySampler sampler(registry, /*interval_cycles=*/1000);
    FleetLeakageAuditor auditor(registry, LeakageAuditor::Config{},
                                cfg.numReplicas);
    const fleet::FleetTelemetry telemetry{&sampler, &auditor};

    const fleet::FleetServer server(gpu, serve_cfg, cfg, kKey);
    (void)server.run(spec, &telemetry);
    EXPECT_GT(sampler.samplesTaken(), 0u);
    return {renderPrometheus(registry), sampler.seriesJson()};
}

TEST(TelemetryDeterminism, FleetExpositionIdenticalAcrossSkipModes)
{
    const auto stepped = fleetRun(false);
    const auto skipped = fleetRun(true);
    EXPECT_EQ(stepped.first, skipped.first);
    EXPECT_EQ(stepped.second, skipped.second);
    const auto lint = lintPrometheus(skipped.first);
    EXPECT_FALSE(lint.has_value()) << *lint;
}

TEST(TelemetryDeterminism, RerunsAreByteIdentical)
{
    const auto first = serveRun(true);
    const auto second = serveRun(true);
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
}

TEST(TelemetryDeterminism, ExpositionIndependentOfSiblingThreads)
{
    // Per-scenario registries are the thread-independence mechanism:
    // a scenario's exposition must not change when other scenarios run
    // concurrently (the bench engine's RCOAL_THREADS axis).
    const auto alone = serveRun(true, 7);

    std::pair<std::string, std::string> crowded;
    std::pair<std::string, std::string> sibling;
    std::thread a([&] { crowded = serveRun(true, 7); });
    std::thread b([&] { sibling = serveRun(true, 97); });
    a.join();
    b.join();

    EXPECT_EQ(alone.first, crowded.first);
    EXPECT_EQ(alone.second, crowded.second);
    // The sibling probed with different plaintexts, so it really was
    // distinct work, not a cached copy.
    EXPECT_NE(alone.first, sibling.first);
}

} // namespace
} // namespace rcoal::telemetry
