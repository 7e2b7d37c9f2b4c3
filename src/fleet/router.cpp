/**
 * @file
 * Router implementation.
 */

#include "rcoal/fleet/router.hpp"

#include "rcoal/common/logging.hpp"
#include "rcoal/common/rng.hpp"
#include "rcoal/serve/replica.hpp"

namespace rcoal::fleet {

Router::Router(RoutingPolicy policy) : routingPolicy(policy) {}

Replica &
Router::route(const serve::Request &request,
              const std::vector<Replica *> &routable)
{
    RCOAL_ASSERT(!routable.empty(), "routing with no active replicas");
    switch (routingPolicy) {
      case RoutingPolicy::RoundRobin: {
        const std::size_t pick =
            static_cast<std::size_t>(rrCursor++ % routable.size());
        return *routable[pick];
      }
      case RoutingPolicy::JoinShortestQueue: {
        Replica *best = routable.front();
        for (Replica *candidate : routable) {
            if (candidate->queue().size() < best->queue().size())
                best = candidate;
        }
        return *best;
      }
      case RoutingPolicy::TenantAffinity: {
        // One SplitMix64 step scrambles the tenant id so consecutive
        // tenants do not land on consecutive replicas. The mapping is
        // stable while the active set is; a scaling action re-shards
        // (as consistent-hashing-free production routers do).
        SplitMix64 hash(request.tenant ^ 0x7e3f'5ca1'b06d'9e24ull);
        const std::size_t pick =
            static_cast<std::size_t>(hash.next() % routable.size());
        return *routable[pick];
      }
    }
    fatal("unknown routing policy %d",
          static_cast<int>(routingPolicy));
}

} // namespace rcoal::fleet
