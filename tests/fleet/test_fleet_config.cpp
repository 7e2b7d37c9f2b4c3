/**
 * @file
 * FleetConfig / AutoscalerConfig validation and defaulting rules.
 */

#include <gtest/gtest.h>

#include "rcoal/fleet/config.hpp"

namespace rcoal::fleet {
namespace {

sim::GpuConfig
smallGpu()
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.numSms = 4;
    return cfg;
}

serve::ServeConfig
smallServe()
{
    serve::ServeConfig cfg;
    cfg.smsPerKernel = 2;
    return cfg;
}

TEST(FleetConfigTest, RoutingPolicyNames)
{
    EXPECT_STREQ(routingPolicyName(RoutingPolicy::RoundRobin), "RR");
    EXPECT_STREQ(routingPolicyName(RoutingPolicy::JoinShortestQueue),
                 "JSQ");
    EXPECT_STREQ(routingPolicyName(RoutingPolicy::TenantAffinity),
                 "Affinity");
}

TEST(FleetConfigTest, DefaultConfigValidates)
{
    FleetConfig cfg;
    cfg.validate(smallGpu(), smallServe());
    EXPECT_EQ(cfg.resolvedInitialActive(), cfg.numReplicas);
}

TEST(FleetConfigTest, InitialActiveDefaultsToMinReplicasUnderAutoscaler)
{
    FleetConfig cfg;
    cfg.numReplicas = 4;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.minReplicas = 2;
    cfg.validate(smallGpu(), smallServe());
    EXPECT_EQ(cfg.resolvedInitialActive(), 2u);
}

TEST(FleetConfigTest, ExplicitInitialActiveWins)
{
    FleetConfig cfg;
    cfg.numReplicas = 4;
    cfg.initialActiveReplicas = 3;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.minReplicas = 1;
    cfg.validate(smallGpu(), smallServe());
    EXPECT_EQ(cfg.resolvedInitialActive(), 3u);
}

TEST(FleetConfigTest, DescribeMentionsRoutingAndAutoscaler)
{
    FleetConfig cfg;
    cfg.numReplicas = 3;
    cfg.routing = RoutingPolicy::JoinShortestQueue;
    cfg.autoscaler.enabled = true;
    const std::string text = cfg.describe();
    EXPECT_NE(text.find("JSQ"), std::string::npos) << text;
    EXPECT_NE(text.find("autoscaler"), std::string::npos) << text;
}

TEST(FleetConfigDeathTest, RejectsEmptyFleet)
{
    FleetConfig cfg;
    cfg.numReplicas = 0;
    EXPECT_DEATH(cfg.validate(smallGpu(), smallServe()),
                 "numReplicas must be positive");
}

TEST(FleetConfigDeathTest, RejectsInitialActiveAbovePool)
{
    FleetConfig cfg;
    cfg.numReplicas = 2;
    cfg.initialActiveReplicas = 3;
    EXPECT_DEATH(cfg.validate(smallGpu(), smallServe()),
                 "exceeds the provisioned pool");
}

TEST(FleetConfigDeathTest, RejectsInvertedHysteresisBand)
{
    FleetConfig cfg;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.queueDepthSlo = 2.0;
    cfg.autoscaler.scaleDownQueueDepth = 2.0;
    EXPECT_DEATH(cfg.validate(smallGpu(), smallServe()),
                 "hysteresis band");
}

TEST(FleetConfigDeathTest, RejectsMinReplicasOutsidePool)
{
    FleetConfig cfg;
    cfg.numReplicas = 2;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.minReplicas = 3;
    EXPECT_DEATH(cfg.validate(smallGpu(), smallServe()),
                 "minReplicas");
}

TEST(FleetConfigDeathTest, RejectsWarmBootedReplicas)
{
    // Fleet replicas start cold; a warm-boot request must not be
    // silently ignored.
    serve::ServeConfig serve = smallServe();
    serve.warmBootKernels = 2;
    EXPECT_DEATH(FleetConfig{}.validate(smallGpu(), serve),
                 "warm boot");
}

} // namespace
} // namespace rcoal::fleet
