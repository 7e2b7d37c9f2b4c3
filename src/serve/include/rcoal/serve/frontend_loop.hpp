/**
 * @file
 * The frontend event loop: the one virtual-time loop behind both the
 * solo EncryptionServer (one replica) and fleet::FleetServer (N).
 *
 * Every cycle it (1) retires finished batches on every in-service
 * replica, in replica order; (2) polls the probe client and the
 * background source, opens each arrival's span, routes it and runs
 * admission, handing rejected closed-loop requests back to their
 * client; (3) runs the caller's control step; (4) launches batches
 * wherever a gang is free; (5) accounts occupancy and ticks every
 * machine once. With cycle skipping on it then lands every machine on
 * ONE common cycle — the earliest machine, arrival, batching, sampling
 * or control event — so a run is byte-identical with skipping on or
 * off. The caller keeps only what differs: where a request goes, what
 * a launch and a completion feed, and the control step.
 */

#ifndef RCOAL_SERVE_FRONTEND_LOOP_HPP
#define RCOAL_SERVE_FRONTEND_LOOP_HPP

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "rcoal/serve/load_generator.hpp"
#include "rcoal/serve/replica.hpp"

namespace rcoal::spans {
class SpanCollector;
} // namespace rcoal::spans

namespace rcoal::telemetry {
class TelemetrySampler;
} // namespace rcoal::telemetry

namespace rcoal::serve {

/** One loop run; everything it points at must outlive the call. */
struct FrontendLoop
{
    /** Retire/launch order; every machine must stand at one cycle. */
    std::span<const std::unique_ptr<Replica>> replicas;
    ClosedLoopGenerator *probes = nullptr;
    ArrivalSource *background = nullptr;

    /** Stop once this many probe requests completed. */
    unsigned probeSamples = 0;

    /** fatal() this many cycles after the start (livelock guard). */
    Cycle maxSimCycles = 0;

    /** Optional: opens a span per arrival, abandoned on rejection. */
    spans::SpanCollector *spans = nullptr;

    /**
     * Optional sampler the loop drives: sampled after each tick, its
     * next sample a skip bound. Leave null when a machine drives it
     * (GpuMachine::setTelemetry).
     */
    telemetry::TelemetrySampler *sampler = nullptr;

    /** Where a request goes: a routable replica (span already open). */
    std::function<Replica &(Request &, Cycle)> route = nullptr;

    /** Optional: feed one batch about to launch. */
    std::function<void(const std::vector<Request> &)> onLaunch = nullptr;

    /** Feed one completion; the replica's accounting and the probe
     * client have already seen it. */
    std::function<void(const Replica &, CompletedRequest &&, Cycle)>
        onCompletion = nullptr;

    /**
     * Optional control step after admission, before launch. Returns the
     * next cycle it must run at (a skip bound).
     */
    std::function<Cycle(Cycle)> control = nullptr;
};

/** Run @p loop from the machines' current cycle; returns the final one. */
Cycle runFrontendLoop(const FrontendLoop &loop);

} // namespace rcoal::serve

#endif // RCOAL_SERVE_FRONTEND_LOOP_HPP
