/**
 * @file
 * FleetConfig validation and description.
 */

#include "rcoal/fleet/config.hpp"

#include <algorithm>

#include "rcoal/common/logging.hpp"

namespace rcoal::fleet {

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin:
        return "RR";
      case RoutingPolicy::JoinShortestQueue:
        return "JSQ";
      case RoutingPolicy::TenantAffinity:
        return "Affinity";
    }
    return "?";
}

unsigned
FleetConfig::resolvedInitialActive() const
{
    if (initialActiveReplicas != 0)
        return std::min(initialActiveReplicas, numReplicas);
    if (autoscaler.enabled)
        return std::min(autoscaler.minReplicas, numReplicas);
    return numReplicas;
}

void
FleetConfig::validate(const sim::GpuConfig &gpu,
                      const serve::ServeConfig &serve) const
{
    serve.validate(gpu);
    if (numReplicas == 0)
        fatal("fleet numReplicas must be positive (got 0)");
    if (initialActiveReplicas > numReplicas) {
        fatal("fleet initialActiveReplicas (%u) exceeds the provisioned "
              "pool of %u replicas",
              initialActiveReplicas, numReplicas);
    }
    if (serve.warmBootKernels > 0) {
        fatal("fleet replicas do not warm boot (warmBootKernels %u); "
              "set it to 0",
              serve.warmBootKernels);
    }
    if (autoscaler.enabled) {
        if (autoscaler.evalIntervalCycles == 0) {
            fatal("autoscaler evalIntervalCycles must be positive "
                  "(got 0)");
        }
        if (autoscaler.minReplicas == 0 ||
            autoscaler.minReplicas > numReplicas) {
            fatal("autoscaler minReplicas (%u) must be in [1, %u]",
                  autoscaler.minReplicas, numReplicas);
        }
        if (autoscaler.queueDepthSlo <= 0.0) {
            fatal("autoscaler queueDepthSlo must be positive (got %g)",
                  autoscaler.queueDepthSlo);
        }
        if (autoscaler.scaleDownQueueDepth >= autoscaler.queueDepthSlo) {
            fatal("autoscaler scaleDownQueueDepth (%g) must be below "
                  "queueDepthSlo (%g): without a hysteresis band the "
                  "fleet flaps",
                  autoscaler.scaleDownQueueDepth,
                  autoscaler.queueDepthSlo);
        }
    }
}

std::string
FleetConfig::describe() const
{
    std::string out = strprintf(
        "fleet: %u replicas (%u active), routing %s", numReplicas,
        resolvedInitialActive(), routingPolicyName(routing));
    if (autoscaler.enabled) {
        out += strprintf(", autoscaler slo %g every %llu cycles",
                         autoscaler.queueDepthSlo,
                         static_cast<unsigned long long>(
                             autoscaler.evalIntervalCycles));
    }
    return out;
}

} // namespace rcoal::fleet
