/**
 * @file
 * FleetServer implementation: the fleet's side of the frontend loop.
 */

#include "rcoal/fleet/fleet.hpp"

#include <memory>
#include <string>

#include "rcoal/common/logging.hpp"
#include "rcoal/common/rng.hpp"
#include "rcoal/fleet/autoscaler.hpp"
#include "rcoal/fleet/router.hpp"
#include "rcoal/serve/frontend_loop.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"
#include "rcoal/telemetry/sampler.hpp"

namespace rcoal::fleet {

namespace {

/** What one replica did, for the fleet report. */
ReplicaReport
replicaReport(const Replica &replica, Cycle total_cycles)
{
    const serve::ReplicaTotals &totals = replica.totals();
    ReplicaReport out;
    out.replica = replica.index();
    out.finalState = serve::replicaStateName(replica.state());
    out.completed = totals.allLatency.count();
    out.probeCompleted = totals.probeLatency.count();
    out.admitted = replica.queue().admitted();
    out.rejected = replica.queue().rejected();
    out.kernelsLaunched = replica.scheduler().kernelsLaunched();
    out.allLatency = totals.allLatency.summary();
    out.probeLatency = totals.probeLatency.summary();
    out.maxQueueDepth = totals.maxQueueDepth;
    out.activeCycles = totals.activeCycles;
    if (total_cycles > 0) {
        out.meanQueueDepth = static_cast<double>(totals.queueDepthSum) /
                             static_cast<double>(total_cycles);
    }
    return out;
}

} // namespace

FleetServer::FleetServer(const sim::GpuConfig &gpu,
                         const serve::ServeConfig &serve,
                         const FleetConfig &fleet,
                         std::span<const std::uint8_t> key)
    : gpuConfig(gpu),
      serveConfig(serve),
      fleetConfig(fleet),
      secretKey(key.begin(), key.end())
{
    fleetConfig.validate(gpuConfig, serveConfig);
}

FleetReport
FleetServer::run(const FleetWorkloadSpec &spec,
                 const FleetTelemetry *telemetry) const
{
    RCOAL_ASSERT(spec.probeSamples > 0, "fleet workload without probes");
    spec.tenants.validate();
    const unsigned num_replicas = fleetConfig.numReplicas;
    const int pin = spec.pinProbesToReplica;
    if (pin >= 0 && static_cast<unsigned>(pin) >= num_replicas) {
        fatal("probes pinned to replica %d but the fleet has %u",
              pin, num_replicas);
    }
    const unsigned initial_active = fleetConfig.resolvedInitialActive();
    if (pin >= 0 && static_cast<unsigned>(pin) >= initial_active) {
        fatal("probes pinned to replica %d, which is not active at "
              "start (%u active)",
              pin, initial_active);
    }
    if (pin >= 0 && fleetConfig.autoscaler.enabled &&
        static_cast<unsigned>(pin) >= fleetConfig.autoscaler.minReplicas) {
        fatal("probes pinned to replica %d, which the autoscaler may "
              "drain (minReplicas %u); pin below minReplicas",
              pin, fleetConfig.autoscaler.minReplicas);
    }

    // Replica i's machine draws its subwarp randomness from an
    // independently derived seed, so replicas behave like distinct
    // physical devices of the same SKU.
    std::vector<std::unique_ptr<Replica>> replicas;
    replicas.reserve(num_replicas);
    for (unsigned r = 0; r < num_replicas; ++r) {
        sim::GpuConfig replica_gpu = gpuConfig;
        replica_gpu.seed = Rng::deriveSeed(gpuConfig.seed, r);
        replicas.push_back(std::make_unique<Replica>(
            r, replica_gpu, serveConfig, secretKey,
            /*active=*/r < initial_active));
    }

    // The autoscaler reads its inputs and its SLO from a metric
    // registry; with no sampler attached the fleet brings its own, so
    // scaling works (and stays deterministic) without observers.
    telemetry::TelemetrySampler *sampler =
        telemetry != nullptr ? telemetry->sampler : nullptr;
    telemetry::LeakageAuditor *auditor =
        telemetry != nullptr ? telemetry->auditor : nullptr;
    RCOAL_ASSERT(auditor == nullptr || (auditor->series() == num_replicas &&
                                        auditor->hasAggregate()),
                 "fleet auditor needs a series per replica and an aggregate");
    spans::SpanCollector *span_collector =
        telemetry != nullptr ? telemetry->spans : nullptr;
    if (span_collector != nullptr) {
        // One collector for the whole fleet; the replica index is the
        // launch-slot namespace, so co-numbered launches on different
        // machines cannot collide.
        for (auto &replica_ptr : replicas) {
            replica_ptr->scheduler().setSpanCollector(
                span_collector, replica_ptr->index());
        }
    }
    telemetry::MetricRegistry own_registry;
    telemetry::MetricRegistry &reg =
        sampler != nullptr ? sampler->registry() : own_registry;

    std::vector<telemetry::Gauge *> depth_gauges;
    for (unsigned r = 0; r < num_replicas; ++r) {
        depth_gauges.push_back(&reg.gauge(
            "rcoal_fleet_queue_depth",
            "Requests waiting in a replica's admission queue",
            {{"replica", std::to_string(r)}}));
    }
    std::unique_ptr<QueueDepthAutoscaler> autoscaler;
    if (fleetConfig.autoscaler.enabled) {
        autoscaler = std::make_unique<QueueDepthAutoscaler>(
            fleetConfig.autoscaler, reg, num_replicas);
    }

    FleetReport report;
    serve::StreamingLatency all_latency;
    serve::StreamingLatency probe_latency;
    unsigned active_count = initial_active;
    // The active set is always a prefix of the pool.
    std::vector<Replica *> routable;
    const auto refresh_routable = [&] {
        routable.clear();
        for (unsigned r = 0; r < active_count; ++r)
            routable.push_back(replicas[r].get());
    };
    refresh_routable();

    if (sampler != nullptr) {
        telemetry::Gauge *active_replicas =
            &reg.gauge("rcoal_fleet_active_replicas",
                       "Replicas currently routable");
        telemetry::Counter *admitted =
            &reg.counter("rcoal_fleet_admitted_total",
                         "Requests admitted fleet-wide");
        telemetry::Counter *rejected =
            &reg.counter("rcoal_fleet_rejected_total",
                         "Requests rejected fleet-wide");
        telemetry::Counter *completed =
            &reg.counter("rcoal_fleet_completed_total",
                         "Requests completed fleet-wide");
        telemetry::Counter *probe_completed =
            &reg.counter("rcoal_fleet_probe_completed_total",
                         "Probe requests completed fleet-wide");
        telemetry::Counter *kernels_launched =
            &reg.counter("rcoal_fleet_kernels_launched_total",
                         "Batch kernels launched fleet-wide");
        sampler->addCollector([=, &replicas, &depth_gauges, &active_count,
                               &report](Cycle) {
            std::uint64_t admitted_sum = 0;
            std::uint64_t rejected_sum = 0;
            std::uint64_t launched_sum = 0;
            std::uint64_t probe_sum = 0;
            for (unsigned r = 0; r < num_replicas; ++r) {
                const Replica &replica = *replicas[r];
                depth_gauges[r]->set(
                    static_cast<double>(replica.queue().size()));
                admitted_sum += replica.queue().admitted();
                rejected_sum += replica.queue().rejected();
                launched_sum += replica.scheduler().kernelsLaunched();
                probe_sum += replica.totals().probeLatency.count();
            }
            active_replicas->set(static_cast<double>(active_count));
            admitted->set(admitted_sum);
            rejected->set(rejected_sum);
            completed->set(report.completed.size());
            probe_completed->set(probe_sum);
            kernels_launched->set(launched_sum);
        });
        sampler->track("fleet_active_replicas", [&active_count] {
            return static_cast<double>(active_count);
        });
        sampler->track("fleet_queue_depth", [&replicas] {
            std::size_t sum = 0;
            for (const auto &replica : replicas)
                sum += replica->queue().size();
            return static_cast<double>(sum);
        });
        if (auditor != nullptr) {
            sampler->track("fleet_leakage_correlation", [auditor] {
                return auditor->correlation(
                    telemetry::LeakageAuditor::kAggregate);
            });
        }
        sampler->alignAfter(0);
    }

    Router router(fleetConfig.routing);
    const auto route = [&](serve::Request &request, Cycle now) -> Replica & {
        Replica &target = (request.isProbe && pin >= 0)
                              ? *replicas[static_cast<unsigned>(pin)]
                              : router.route(request, routable);
        if (span_collector != nullptr) {
            // Route stage: frontend arrival -> routed cycle,
            // component/detail = chosen replica.
            span_collector->stampRequest(
                request.spanId, spans::SpanStage::Route, request.arrival,
                now, target.index(),
                static_cast<std::uint16_t>(target.index()));
        }
        return target;
    };
    const auto on_completion = [&](const Replica &replica,
                                   serve::CompletedRequest &&done, Cycle) {
        const auto latency = static_cast<double>(done.latencyCycles());
        all_latency.observe(latency);
        if (done.isProbe) {
            probe_latency.observe(latency);
            if (auditor != nullptr) {
                auditor->observe(replica.index(),
                                 static_cast<double>(
                                     done.kernelPredictedLastRoundAccesses),
                                 done.kernelLastRoundTime);
            }
        }
        report.completedReplica.push_back(replica.index());
        report.completed.push_back(std::move(done));
    };
    // Autoscaling on its evaluation grid: publish the depth gauges, let
    // the scaler read them (and the SLO) back from the registry, then
    // grow into the lowest idle replica or drain the highest active one.
    const auto autoscale = [&](Cycle now) -> Cycle {
        if (autoscaler == nullptr)
            return kInvalidCycle;
        if (now == autoscaler->nextEvalCycle()) {
            for (unsigned r = 0; r < num_replicas; ++r) {
                depth_gauges[r]->set(static_cast<double>(
                    replicas[r]->queue().size()));
            }
            const unsigned desired =
                autoscaler->evaluate(now, active_count);
            while (active_count < desired)
                replicas[active_count++]->activate();
            while (active_count > desired)
                replicas[--active_count]->startDraining();
            refresh_routable();
        }
        return autoscaler->nextEvalCycle();
    };

    serve::ClosedLoopGenerator probes(
        /*clients=*/1, spec.probeThinkCycles, spec.probeLines,
        spec.probeSeed, /*first_id=*/0, /*probes=*/true);
    TenantLoadModel tenants(spec.tenants);
    const Cycle now = serve::runFrontendLoop({
        .replicas = replicas,
        .probes = &probes,
        .background = &tenants,
        .probeSamples = spec.probeSamples,
        .maxSimCycles = serveConfig.maxSimCycles,
        .spans = span_collector,
        .sampler = sampler,
        .route = route,
        .onCompletion = on_completion,
        .control = autoscale,
    });

    report.totalCycles = now;
    report.replicas.reserve(num_replicas);
    Cycle active_cycle_sum = 0;
    for (const auto &replica_ptr : replicas) {
        ReplicaReport rr = replicaReport(*replica_ptr, now);
        report.admitted += rr.admitted;
        report.rejected += rr.rejected;
        active_cycle_sum += rr.activeCycles;
        report.replicas.push_back(std::move(rr));
    }
    report.allLatency = all_latency.summary();
    report.probeLatency = probe_latency.summary();
    if (autoscaler != nullptr)
        report.autoscalerActions = autoscaler->actions();
    if (now > 0) {
        report.meanActiveReplicas =
            static_cast<double>(active_cycle_sum) /
            static_cast<double>(now);
        const double seconds = static_cast<double>(now) /
                               (gpuConfig.coreClockMhz * 1e6);
        report.throughputReqPerSec =
            static_cast<double>(report.completed.size()) / seconds;
    }

    if (sampler != nullptr) {
        sampler->collect(now);
        sampler->detachSources();
    }
    return report;
}

} // namespace rcoal::fleet
