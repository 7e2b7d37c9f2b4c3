/**
 * @file
 * Router policies: round-robin order, JSQ depth sensitivity, affinity
 * stability — all deterministic.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <vector>

#include "rcoal/fleet/router.hpp"
#include "rcoal/serve/replica.hpp"

namespace rcoal::fleet {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

class FleetRouterTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        sim::GpuConfig gpu = sim::GpuConfig::paperBaseline();
        gpu.numSms = 4;
        serve::ServeConfig serve;
        serve.smsPerKernel = 2;
        serve.queueCapacity = 8;
        for (unsigned r = 0; r < 3; ++r) {
            replicas.push_back(
                std::make_unique<Replica>(r, gpu, serve, kKey));
            candidates.push_back(replicas.back().get());
        }
    }

    static serve::Request makeRequest(std::uint64_t tenant)
    {
        serve::Request request;
        request.id = tenant * 100;
        request.tenant = tenant;
        return request;
    }

    std::vector<std::unique_ptr<Replica>> replicas;
    std::vector<Replica *> candidates;
};

TEST_F(FleetRouterTest, RoundRobinCyclesThroughActiveSet)
{
    Router router(RoutingPolicy::RoundRobin);
    std::vector<unsigned> picks;
    for (int i = 0; i < 7; ++i)
        picks.push_back(router.route(makeRequest(1), candidates).index());
    EXPECT_EQ(picks, (std::vector<unsigned>{0, 1, 2, 0, 1, 2, 0}));
}

TEST_F(FleetRouterTest, RoundRobinCursorSurvivesActiveSetShrink)
{
    Router router(RoutingPolicy::RoundRobin);
    (void)router.route(makeRequest(1), candidates);
    (void)router.route(makeRequest(1), candidates);
    const std::vector<Replica *> fewer = {candidates[0], candidates[1]};
    // Cursor keeps advancing modulo the new set size; no reset, no
    // out-of-range access.
    const unsigned pick = router.route(makeRequest(1), fewer).index();
    EXPECT_LT(pick, 2u);
}

TEST_F(FleetRouterTest, JsqPicksTheShortestQueueTiesLowestIndex)
{
    Router router(RoutingPolicy::JoinShortestQueue);
    // All empty: tie broken toward replica 0.
    EXPECT_EQ(router.route(makeRequest(1), candidates).index(), 0u);

    ASSERT_TRUE(replicas[0]->queue().tryPush(makeRequest(7)));
    ASSERT_TRUE(replicas[0]->queue().tryPush(makeRequest(7)));
    ASSERT_TRUE(replicas[1]->queue().tryPush(makeRequest(7)));
    // Depths {2, 1, 0}: replica 2 wins.
    EXPECT_EQ(router.route(makeRequest(1), candidates).index(), 2u);

    ASSERT_TRUE(replicas[2]->queue().tryPush(makeRequest(7)));
    // Depths {2, 1, 1}: tie between 1 and 2 goes to 1.
    EXPECT_EQ(router.route(makeRequest(1), candidates).index(), 1u);
}

TEST_F(FleetRouterTest, AffinityKeepsATenantOnOneReplica)
{
    Router router(RoutingPolicy::TenantAffinity);
    for (std::uint64_t tenant = 1; tenant <= 8; ++tenant) {
        const unsigned first =
            router.route(makeRequest(tenant), candidates).index();
        for (int repeat = 0; repeat < 3; ++repeat) {
            EXPECT_EQ(
                router.route(makeRequest(tenant), candidates).index(),
                first)
                << "tenant " << tenant;
        }
    }
}

TEST_F(FleetRouterTest, AffinitySpreadsDistinctTenants)
{
    Router router(RoutingPolicy::TenantAffinity);
    std::set<unsigned> used;
    for (std::uint64_t tenant = 1; tenant <= 32; ++tenant)
        used.insert(router.route(makeRequest(tenant), candidates).index());
    // 32 tenants hashed onto 3 replicas must hit more than one of them.
    EXPECT_GT(used.size(), 1u);
}

TEST_F(FleetRouterTest, RoutingIsDeterministicAcrossRouters)
{
    Router a(RoutingPolicy::TenantAffinity);
    Router b(RoutingPolicy::TenantAffinity);
    for (std::uint64_t tenant = 1; tenant <= 16; ++tenant) {
        EXPECT_EQ(a.route(makeRequest(tenant), candidates).index(),
                  b.route(makeRequest(tenant), candidates).index());
    }
}

} // namespace
} // namespace rcoal::fleet
