/**
 * @file
 * FleetServer end-to-end: serving invariants across replicas, probe
 * pinning, telemetry/auditor wiring and autoscaler integration.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "rcoal/fleet/fleet.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"
#include "rcoal/telemetry/registry.hpp"
#include "rcoal/telemetry/sampler.hpp"

namespace rcoal::fleet {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

sim::GpuConfig
smallGpu(std::uint64_t seed = 42)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.numSms = 4;
    cfg.seed = seed;
    return cfg;
}

serve::ServeConfig
smallServe()
{
    serve::ServeConfig cfg;
    cfg.queueCapacity = 16;
    cfg.maxBatchRequests = 2;
    cfg.maxSimCycles = 20'000'000;
    cfg.smsPerKernel = 2; // Two gangs per 4-SM replica.
    return cfg;
}

FleetConfig
smallFleet(RoutingPolicy routing = RoutingPolicy::RoundRobin)
{
    FleetConfig cfg;
    cfg.numReplicas = 2;
    cfg.routing = routing;
    return cfg;
}

FleetWorkloadSpec
lightWorkload(unsigned probes = 4)
{
    FleetWorkloadSpec spec;
    spec.probeSamples = probes;
    spec.probeLines = 32;
    spec.probeSeed = 7;
    spec.probeThinkCycles = 100;
    spec.tenants.tenants = 2;
    spec.tenants.baseMeanGapCycles = 4000.0;
    spec.tenants.lineChoices = {32};
    spec.tenants.seed = 99;
    return spec;
}

TEST(FleetServerTest, ServesProbesAndTenantsAcrossReplicas)
{
    const FleetServer fleet(smallGpu(), smallServe(), smallFleet(),
                            kKey);
    const FleetReport report = fleet.run(lightWorkload(5));

    // The run ends when the probe stream is satisfied.
    std::size_t probe_count = 0;
    std::set<std::uint64_t> ids;
    ASSERT_EQ(report.completed.size(), report.completedReplica.size());
    for (std::size_t i = 0; i < report.completed.size(); ++i) {
        const auto &done = report.completed[i];
        EXPECT_TRUE(ids.insert(done.id).second)
            << "duplicate completion id " << done.id;
        EXPECT_LT(report.completedReplica[i], 2u);
        EXPECT_GE(done.completed, done.launched);
        EXPECT_GE(done.launched, done.arrival);
        if (done.isProbe)
            ++probe_count;
    }
    EXPECT_EQ(probe_count, 5u);
    EXPECT_GT(report.totalCycles, Cycle{0});
    EXPECT_GT(report.throughputReqPerSec, 0.0);
    EXPECT_DOUBLE_EQ(report.meanActiveReplicas, 2.0);

    // Per-replica accounting must add up to the fleet aggregate.
    ASSERT_EQ(report.replicas.size(), 2u);
    std::size_t replica_completed = 0;
    std::uint64_t replica_admitted = 0;
    for (const ReplicaReport &r : report.replicas) {
        replica_completed += r.completed;
        replica_admitted += r.admitted;
        EXPECT_EQ(r.finalState, "active");
    }
    EXPECT_EQ(replica_completed, report.completed.size());
    EXPECT_EQ(replica_admitted, report.admitted);
    EXPECT_EQ(report.allLatency.count, report.completed.size());
    EXPECT_EQ(report.probeLatency.count, probe_count);
    EXPECT_FALSE(report.describe().empty());
}

TEST(FleetServerTest, RoundRobinSpreadsWorkOverBothReplicas)
{
    const FleetServer fleet(smallGpu(), smallServe(), smallFleet(),
                            kKey);
    const FleetReport report = fleet.run(lightWorkload(6));
    ASSERT_EQ(report.replicas.size(), 2u);
    EXPECT_GT(report.replicas[0].completed, 0u);
    EXPECT_GT(report.replicas[1].completed, 0u);
}

TEST(FleetServerTest, PinnedProbesAllLandOnThePinnedReplica)
{
    const FleetServer fleet(smallGpu(), smallServe(), smallFleet(),
                            kKey);
    FleetWorkloadSpec spec = lightWorkload(5);
    spec.pinProbesToReplica = 1;
    const FleetReport report = fleet.run(spec);

    std::size_t probe_count = 0;
    for (std::size_t i = 0; i < report.completed.size(); ++i) {
        if (!report.completed[i].isProbe)
            continue;
        ++probe_count;
        EXPECT_EQ(report.completedReplica[i], 1u)
            << "probe " << report.completed[i].id
            << " escaped the pinned replica";
    }
    EXPECT_EQ(probe_count, 5u);
}

TEST(FleetServerTest, TelemetryAndFleetAuditorSeeTheRun)
{
    telemetry::MetricRegistry registry;
    telemetry::TelemetrySampler sampler(registry, 2000);
    telemetry::FleetLeakageAuditor auditor(registry, {}, 2);
    FleetTelemetry telemetry{&sampler, &auditor};

    const FleetServer fleet(smallGpu(), smallServe(), smallFleet(),
                            kKey);
    const FleetReport report = fleet.run(lightWorkload(6), &telemetry);

    // Every completed probe reached the auditor: each per-replica
    // series plus the aggregate, which saw all of them.
    EXPECT_EQ(auditor.fleetSamples(), 6u);
    EXPECT_EQ(auditor.samples(0) + auditor.samples(1), 6u);

    EXPECT_GT(sampler.samplesTaken(), 0u);
    EXPECT_DOUBLE_EQ(
        registry.readValue("rcoal_fleet_completed_total"),
        static_cast<double>(report.completed.size()));
    EXPECT_DOUBLE_EQ(registry.readValue("rcoal_fleet_admitted_total"),
                     static_cast<double>(report.admitted));
    EXPECT_DOUBLE_EQ(
        registry.readValue("rcoal_fleet_probe_completed_total"), 6.0);
    EXPECT_DOUBLE_EQ(registry.readValue("rcoal_fleet_active_replicas"),
                     2.0);
}

TEST(FleetServerTest, AutoscalerGrowsAColdFleetUnderLoad)
{
    serve::ServeConfig serve = smallServe();
    serve.queueCapacity = 64;

    FleetConfig cfg = smallFleet();
    cfg.numReplicas = 3;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.evalIntervalCycles = 10'000;
    cfg.autoscaler.queueDepthSlo = 2.0;
    cfg.autoscaler.scaleDownQueueDepth = 0.25;
    cfg.autoscaler.cooldownCycles = 0;
    cfg.autoscaler.minReplicas = 1;

    FleetWorkloadSpec spec = lightWorkload(8);
    spec.tenants.baseMeanGapCycles = 400.0; // Hot enough to overflow 1.

    const FleetServer fleet(smallGpu(), serve, cfg, kKey);
    const FleetReport report = fleet.run(spec);

    ASSERT_FALSE(report.autoscalerActions.empty());
    const AutoscalerAction &first = report.autoscalerActions.front();
    EXPECT_EQ(first.fromReplicas, 1u);
    EXPECT_EQ(first.toReplicas, 2u);
    EXPECT_GT(report.meanActiveReplicas, 1.0);
    // Replicas beyond the initial active set only serve once activated.
    EXPECT_GT(report.replicas[1].completed + report.replicas[2].completed,
              0u);
}

TEST(FleetServerDeathTest, PinningToADrainableReplicaIsRejected)
{
    FleetConfig cfg = smallFleet();
    cfg.numReplicas = 3;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.minReplicas = 1;
    const FleetServer fleet(smallGpu(), smallServe(), cfg, kKey);
    FleetWorkloadSpec spec = lightWorkload(2);
    spec.pinProbesToReplica = 2;
    EXPECT_DEATH((void)fleet.run(spec), "pin");
}

TEST(FleetServerDeathTest, ImpossibleFleetWorkloadDiesOnLivelockGuard)
{
    serve::ServeConfig serve = smallServe();
    serve.maxSimCycles = 50'000;
    const FleetServer fleet(smallGpu(), serve, smallFleet(), kKey);
    FleetWorkloadSpec spec = lightWorkload(4);
    spec.probeThinkCycles = 100'000; // Probes cannot finish in time.
    spec.tenants.tenants = 0;
    EXPECT_DEATH((void)fleet.run(spec), "livelocked");
}

} // namespace
} // namespace rcoal::fleet
