/**
 * @file
 * Request router: picks a replica for every arriving request under a
 * pluggable policy. Deterministic — routing is a pure function of the
 * router's own state and the candidate set, never of wall time.
 */

#ifndef RCOAL_FLEET_ROUTER_HPP
#define RCOAL_FLEET_ROUTER_HPP

#include <vector>

#include "rcoal/fleet/config.hpp"
#include "rcoal/serve/request.hpp"

namespace rcoal::serve {
class Replica;
} // namespace rcoal::serve

namespace rcoal::fleet {

using serve::Replica;

class Router
{
  public:
    explicit Router(RoutingPolicy policy);

    /**
     * Pick the replica for @p request from @p routable (the Active
     * replicas in ascending index order; must be non-empty). Queue
     * depths are read live, so a burst of simultaneous arrivals sees
     * the pushes of the requests routed before it.
     */
    Replica &route(const serve::Request &request,
                   const std::vector<Replica *> &routable);

    RoutingPolicy policy() const { return routingPolicy; }

  private:
    RoutingPolicy routingPolicy;
    /** Round-robin position; survives active-set changes. */
    std::uint64_t rrCursor = 0;
};

} // namespace rcoal::fleet

#endif // RCOAL_FLEET_ROUTER_HPP
