/**
 * @file
 * The fleet's reproducibility contract: a fleet run is a pure function
 * of its configuration — byte-identical across repeated runs, across
 * cycle-skipping on/off (the lockstep-skip property), and across
 * routing-policy-independent observables like probe plaintexts.
 */

#include <gtest/gtest.h>

#include <array>

#include "rcoal/common/thread_pool.hpp"
#include "rcoal/fleet/fleet.hpp"

namespace rcoal::fleet {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

sim::GpuConfig
smallGpu(bool cycle_skipping = true)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.numSms = 4;
    cfg.seed = 42;
    cfg.cycleSkipping = cycle_skipping;
    return cfg;
}

serve::ServeConfig
smallServe()
{
    serve::ServeConfig cfg;
    cfg.queueCapacity = 16;
    cfg.maxBatchRequests = 2;
    cfg.maxSimCycles = 20'000'000;
    cfg.smsPerKernel = 2;
    return cfg;
}

FleetConfig
testFleet(RoutingPolicy routing)
{
    FleetConfig cfg;
    cfg.numReplicas = 2;
    cfg.routing = routing;
    return cfg;
}

FleetWorkloadSpec
testWorkload()
{
    FleetWorkloadSpec spec;
    spec.probeSamples = 5;
    spec.probeLines = 32;
    spec.probeSeed = 7;
    spec.probeThinkCycles = 100;
    spec.tenants.tenants = 2;
    spec.tenants.baseMeanGapCycles = 2500.0;
    spec.tenants.burstProbability = 0.2;
    spec.tenants.burstLength = 3;
    spec.tenants.lineChoices = {32};
    spec.tenants.seed = 99;
    return spec;
}

void
expectIdenticalFleetReports(const FleetReport &a, const FleetReport &b)
{
    ASSERT_EQ(a.completed.size(), b.completed.size());
    ASSERT_EQ(a.completedReplica, b.completedReplica);
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
        EXPECT_EQ(ca.kernelPredictedLastRoundAccesses,
                  cb.kernelPredictedLastRoundAccesses)
            << "completion " << i;
    }
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (std::size_t r = 0; r < a.replicas.size(); ++r) {
        EXPECT_EQ(a.replicas[r].completed, b.replicas[r].completed);
        EXPECT_EQ(a.replicas[r].kernelsLaunched,
                  b.replicas[r].kernelsLaunched);
        EXPECT_EQ(a.replicas[r].activeCycles,
                  b.replicas[r].activeCycles);
    }
}

class FleetDeterminismTest
    : public ::testing::TestWithParam<RoutingPolicy>
{
};

TEST_P(FleetDeterminismTest, RepeatedRunsAreByteIdentical)
{
    const FleetServer fleet(smallGpu(), smallServe(),
                            testFleet(GetParam()), kKey);
    const FleetReport first = fleet.run(testWorkload());
    const FleetReport second = fleet.run(testWorkload());
    expectIdenticalFleetReports(first, second);
}

TEST_P(FleetDeterminismTest, CycleSkippingDoesNotChangeTheRun)
{
    const FleetServer skipping(smallGpu(true), smallServe(),
                               testFleet(GetParam()), kKey);
    const FleetServer stepping(smallGpu(false), smallServe(),
                               testFleet(GetParam()), kKey);
    const FleetReport fast = skipping.run(testWorkload());
    const FleetReport slow = stepping.run(testWorkload());
    expectIdenticalFleetReports(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FleetDeterminismTest,
    ::testing::Values(RoutingPolicy::RoundRobin,
                      RoutingPolicy::JoinShortestQueue,
                      RoutingPolicy::TenantAffinity),
    [](const auto &info) {
        return std::string(routingPolicyName(info.param));
    });

TEST(FleetDeterminismTest2, ThreadPoolWidthDoesNotChangeTheRun)
{
    // Fleet runs are single-threaded by design; spreading scenarios
    // over the bench pool must reproduce the sequential result no
    // matter how wide the pool is (the RCOAL_THREADS contract).
    const FleetServer fleet(smallGpu(), smallServe(),
                            testFleet(RoutingPolicy::RoundRobin), kKey);
    const FleetReport sequential = fleet.run(testWorkload());

    ThreadPool pool(4);
    std::vector<FleetReport> pooled(3);
    pool.parallelFor(pooled.size(), [&fleet, &pooled](std::size_t i) {
        pooled[i] = fleet.run(testWorkload());
    });
    for (const FleetReport &report : pooled)
        expectIdenticalFleetReports(sequential, report);
}

TEST(FleetDeterminismTest2, AutoscaledRunsAreSkipInvariant)
{
    FleetConfig cfg = testFleet(RoutingPolicy::JoinShortestQueue);
    cfg.numReplicas = 3;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.evalIntervalCycles = 10'000;
    cfg.autoscaler.queueDepthSlo = 2.0;
    cfg.autoscaler.scaleDownQueueDepth = 0.25;
    cfg.autoscaler.cooldownCycles = 0;

    FleetWorkloadSpec spec = testWorkload();
    spec.tenants.baseMeanGapCycles = 500.0;

    const FleetServer skipping(smallGpu(true), smallServe(), cfg, kKey);
    const FleetServer stepping(smallGpu(false), smallServe(), cfg, kKey);
    const FleetReport fast = skipping.run(spec);
    const FleetReport slow = stepping.run(spec);
    expectIdenticalFleetReports(fast, slow);
    ASSERT_EQ(fast.autoscalerActions.size(),
              slow.autoscalerActions.size());
    for (std::size_t i = 0; i < fast.autoscalerActions.size(); ++i) {
        EXPECT_EQ(fast.autoscalerActions[i].cycle,
                  slow.autoscalerActions[i].cycle);
        EXPECT_EQ(fast.autoscalerActions[i].toReplicas,
                  slow.autoscalerActions[i].toReplicas);
    }
}

} // namespace
} // namespace rcoal::fleet
