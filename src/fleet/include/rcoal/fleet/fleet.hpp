/**
 * @file
 * FleetServer: N serve::Replicas behind one deterministic router, driven
 * on a single shared virtual clock.
 *
 * The fleet runs the same frontend loop as the solo server
 * (serve::runFrontendLoop) over N replicas and supplies only what it
 * adds: routing and probe pinning (with the Route span stamp), the
 * queue-depth autoscaler as the loop's control step, replica lifecycle,
 * the rcoal_fleet_* instruments and the per-replica leakage auditor.
 * The loop keeps replicas on one clock — every skip lands all machines
 * on one common cycle — which makes a fleet run's output byte-identical
 * with skipping on or off and, since the loop is single-threaded and
 * all randomness is counter-based, across any RCOAL_THREADS setting.
 */

#ifndef RCOAL_FLEET_FLEET_HPP
#define RCOAL_FLEET_FLEET_HPP

#include <span>
#include <vector>

#include "rcoal/fleet/config.hpp"
#include "rcoal/fleet/load_model.hpp"
#include "rcoal/fleet/metrics.hpp"

namespace rcoal::spans {
class SpanCollector;
} // namespace rcoal::spans

namespace rcoal::telemetry {
class FleetLeakageAuditor;
class TelemetrySampler;
} // namespace rcoal::telemetry

namespace rcoal::fleet {

/**
 * Traffic offered to the fleet: the attacker's closed-loop probe client
 * plus the multi-tenant background population.
 */
struct FleetWorkloadSpec
{
    /** Run until this many probe requests completed. */
    unsigned probeSamples = 64;

    /** Plaintext lines per probe. */
    unsigned probeLines = 32;

    /** Root of the probe plaintext streams (matches the solo harness). */
    std::uint64_t probeSeed = 2024;

    /** Probe client think time between completions. */
    Cycle probeThinkCycles = 200;

    /**
     * Replica the attacker pins probes to, bypassing the router
     * (modeling an attacker who can steer placement); -1 sprays probes
     * through the configured routing policy like any other request.
     * A pinned replica must stay routable, so it must be below the
     * autoscaler's minReplicas (replica 0 always qualifies).
     */
    int pinProbesToReplica = -1;

    /** Background tenant population (tenants = 0 disables). */
    TenantLoadConfig tenants;
};

/**
 * Live observability for one fleet run; both optional, but the auditor
 * requires the sampler (its instruments live in the sampler's
 * registry). Must outlive run(); run-local callbacks are detached
 * before it returns, mirroring serve::ServeTelemetry.
 */
struct FleetTelemetry
{
    telemetry::TelemetrySampler *sampler = nullptr;
    telemetry::FleetLeakageAuditor *auditor = nullptr;

    /**
     * Optional fleet-wide span tracing: one collector shared by every
     * replica (launch slots disambiguated by replica index), so a
     * request's Route stamp and its in-kernel stage stamps land in one
     * slab regardless of placement. Detached before run() returns.
     */
    spans::SpanCollector *spans = nullptr;
};

/**
 * Runs one fleet scenario to completion.
 */
class FleetServer
{
  public:
    /**
     * @param gpu the per-replica device config; replica i reseeds it
     *        with Rng::deriveSeed(gpu.seed, i).
     * @param serve per-replica frontend knobs (validated against gpu;
     *        warmBootKernels must be 0, maxSimCycles is the livelock
     *        guard).
     * @param fleet fleet sizing, routing and autoscaling.
     * @param key the service's secret AES key (shared by all replicas,
     *        as one deployment's replicas share one keystore).
     */
    FleetServer(const sim::GpuConfig &gpu,
                const serve::ServeConfig &serve, const FleetConfig &fleet,
                std::span<const std::uint8_t> key);

    /**
     * Simulate until @p spec.probeSamples probe requests completed and
     * return the fleet-wide report. fatal()s past
     * ServeConfig::maxSimCycles (livelock guard).
     */
    FleetReport run(const FleetWorkloadSpec &spec,
                    const FleetTelemetry *telemetry = nullptr) const;

  private:
    sim::GpuConfig gpuConfig;
    serve::ServeConfig serveConfig;
    FleetConfig fleetConfig;
    std::vector<std::uint8_t> secretKey;
};

} // namespace rcoal::fleet

#endif // RCOAL_FLEET_FLEET_HPP
