/**
 * @file
 * Configuration of rcoal::fleet: how many GpuMachine+serve replicas the
 * deployment runs, how the router spreads requests over them, and how
 * the queue-depth autoscaler grows and shrinks the active set.
 */

#ifndef RCOAL_FLEET_CONFIG_HPP
#define RCOAL_FLEET_CONFIG_HPP

#include <string>

#include "rcoal/common/types.hpp"
#include "rcoal/serve/config.hpp"
#include "rcoal/sim/config.hpp"

namespace rcoal::fleet {

/** How the frontend picks a replica for an arriving request. */
enum class RoutingPolicy
{
    /** Cycle through the active replicas in index order. */
    RoundRobin,

    /**
     * Send each request to the active replica with the fewest queued
     * requests (ties to the lowest index). Best latency under skewed
     * load; spreads any one tenant — including the attacker — across
     * the whole fleet.
     */
    JoinShortestQueue,

    /**
     * Hash the request's tenant id onto the active set, so a tenant's
     * requests co-locate on one replica (cache/affinity benefits in a
     * real deployment). The attacker's probes all share a tenant and
     * therefore a replica — the policy an attacker prefers.
     */
    TenantAffinity,
};

/** Short display name ("RR", "JSQ", "Affinity"). */
const char *routingPolicyName(RoutingPolicy policy);

/**
 * Queue-depth autoscaler knobs. The autoscaler runs on a fixed
 * evaluation grid in virtual time and reads both its inputs (per-replica
 * queue-depth gauges) and its SLO (the depth target gauge) from the
 * telemetry registry — the same numbers an operator's dashboard shows.
 */
struct AutoscalerConfig
{
    bool enabled = false;

    /** Evaluation grid: decisions at multiples of this cycle count. */
    Cycle evalIntervalCycles = 50'000;

    /**
     * The SLO: mean queue depth per active replica the deployment is
     * willing to run at. Published as the gauge
     * rcoal_fleet_autoscaler_depth_slo; evaluations read it back from
     * the registry. Above it the fleet scales up.
     */
    double queueDepthSlo = 8.0;

    /**
     * Mean depth below which a replica is surplus; scaling down only
     * happens under this. Must be < queueDepthSlo (hysteresis band).
     */
    double scaleDownQueueDepth = 1.0;

    /** Minimum cycles between two scaling actions. */
    Cycle cooldownCycles = 200'000;

    /** The active set never shrinks below this many replicas. */
    unsigned minReplicas = 1;
};

/**
 * Fleet-level knobs. Per-replica serving behaviour (queue capacity,
 * batching, SM gangs) stays in serve::ServeConfig; the GPU itself in
 * sim::GpuConfig. Replica i's machine reseeds the GPU config with
 * Rng::deriveSeed(gpu.seed, i), so replicas draw independent subwarp
 * randomness while the whole fleet remains a pure function of its
 * configuration.
 */
struct FleetConfig
{
    /** Replicas provisioned (the autoscaler works within this pool). */
    unsigned numReplicas = 2;

    RoutingPolicy routing = RoutingPolicy::RoundRobin;

    /**
     * Replicas active at simulation start; 0 means "all provisioned"
     * (or AutoscalerConfig::minReplicas when the autoscaler is on,
     * letting scale-up be observed from a cold fleet).
     */
    unsigned initialActiveReplicas = 0;

    AutoscalerConfig autoscaler;

    /** Replicas active at cycle 0 after defaulting rules. */
    unsigned resolvedInitialActive() const;

    /**
     * Panics (fatal) on inconsistent parameters, including a @p serve
     * that asks for warm boot: fleet replicas start cold.
     */
    void validate(const sim::GpuConfig &gpu,
                  const serve::ServeConfig &serve) const;

    /** One-line human-readable summary. */
    std::string describe() const;
};

} // namespace rcoal::fleet

#endif // RCOAL_FLEET_CONFIG_HPP
