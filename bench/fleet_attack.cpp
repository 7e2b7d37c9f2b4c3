/**
 * @file
 * The correlation attack, mounted against a replicated fleet.
 *
 * rcoal::fleet puts N GpuMachine+serve replicas behind a deterministic
 * router and a multi-tenant load model. That changes the attacker's
 * problem: which replica serves a probe now depends on placement. This
 * driver contrasts the two extremes across routing policies:
 *
 *  - pinned: the attacker steers every probe onto one replica (tenant
 *    affinity from the attacker's perspective, or a placement exploit),
 *    concentrating the timing series on a single device;
 *  - sprayed: probes flow through the configured policy like any other
 *    tenant, scattering the series over replicas with independent
 *    subwarp randomness and different co-tenant contention.
 *
 * Each cell reports the fleet operator's view (per-replica and
 * fleet-aggregate p50/p99/p999, throughput, rejections) next to the
 * attacker's (recovered key bytes, average correct-guess correlation)
 * and the online FleetLeakageAuditor's per-replica + aggregate
 * correlation gauges — the monitoring a deployment would actually page
 * on. A final scenario turns the queue-depth autoscaler on under a
 * heavier tenant mix and prints its action log.
 *
 * Every scenario is an independent single-threaded simulation;
 * scenarios spread over the bench pool and all printed output is
 * byte-identical for any RCOAL_THREADS and with cycle skipping on or
 * off.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "rcoal/attack/served_attack.hpp"
#include "rcoal/common/logging.hpp"
#include "rcoal/fleet/fleet.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"
#include "rcoal/telemetry/sampler.hpp"
#include "support/bench_support.hpp"

namespace {

using namespace rcoal;

constexpr unsigned kReplicas = 3;
/** The auditor's replica="fleet" aggregate series. */
constexpr std::size_t kFleet = telemetry::LeakageAuditor::kAggregate;

/** One (coalescing, routing, placement) cell of the sweep. */
struct Scenario
{
    const char *coalescingName; ///< "BASE" or "RSS+RTS".
    core::CoalescingPolicy gpuPolicy;
    fleet::RoutingPolicy routing;
    bool pinned; ///< Attacker pins probes to replica 0.
};

struct ScenarioResult
{
    Scenario scenario;
    fleet::FleetReport report;
    attack::KeyAttackResult attack;
    double fleetSeconds = 0.0;
    /** Live-telemetry state; outlives the run for rendering. */
    std::unique_ptr<telemetry::MetricRegistry> registry;
    std::unique_ptr<telemetry::TelemetrySampler> sampler;
    std::unique_ptr<telemetry::LeakageAuditor> auditor;
};

sim::GpuConfig
fleetGpu(const Scenario &scenario, std::size_t index,
         std::uint64_t root_seed)
{
    sim::GpuConfig gpu = sim::GpuConfig::paperBaseline();
    gpu.seed = Rng::deriveSeed(root_seed, index + 1);
    gpu.policy = scenario.gpuPolicy;
    return gpu;
}

serve::ServeConfig
fleetServe()
{
    serve::ServeConfig cfg;
    cfg.queueCapacity = 64;
    cfg.maxBatchRequests = 4;
    cfg.batchTimeoutCycles = 3000;
    cfg.smsPerKernel = 5;
    return cfg;
}

fleet::FleetWorkloadSpec
fleetWorkload(const Scenario &scenario, std::size_t index,
              unsigned probe_samples, std::uint64_t root_seed)
{
    fleet::FleetWorkloadSpec spec;
    spec.probeSamples = probe_samples;
    spec.probeLines = 32;
    // Probe plaintext stream root = the solo harness's plaintext seed,
    // so the attacker submits the same probe sequence in every world.
    spec.probeSeed = 7;
    spec.probeThinkCycles = 200;
    spec.pinProbesToReplica = scenario.pinned ? 0 : -1;

    spec.tenants.tenants = 4;
    spec.tenants.baseMeanGapCycles = 6000.0;
    spec.tenants.zipfExponent = 1.0;
    spec.tenants.burstProbability = 0.05;
    spec.tenants.burstLength = 4;
    spec.tenants.burstRateFactor = 4.0;
    spec.tenants.lineChoices = {32, 64};
    spec.tenants.seed = Rng::deriveSeed(root_seed, 1000 + index);
    return spec;
}

ScenarioResult
runScenario(const Scenario &scenario, std::size_t index,
            unsigned probe_samples, std::uint64_t root_seed,
            Cycle telemetry_interval)
{
    const sim::GpuConfig gpu = fleetGpu(scenario, index, root_seed);
    const serve::ServeConfig serve_cfg = fleetServe();
    fleet::FleetConfig fleet_cfg;
    fleet_cfg.numReplicas = kReplicas;
    fleet_cfg.routing = scenario.routing;

    ScenarioResult result;
    result.scenario = scenario;
    result.registry = std::make_unique<telemetry::MetricRegistry>();
    result.sampler = std::make_unique<telemetry::TelemetrySampler>(
        *result.registry, telemetry_interval);
    result.auditor = std::make_unique<telemetry::FleetLeakageAuditor>(
        *result.registry, telemetry::LeakageAuditor::Config{},
        kReplicas);
    fleet::FleetTelemetry hooks;
    hooks.sampler = result.sampler.get();
    hooks.auditor = result.auditor.get();

    const fleet::FleetServer fleet(gpu, serve_cfg, fleet_cfg,
                                   bench::victimKey());
    const auto start = std::chrono::steady_clock::now();
    result.report = fleet.run(
        fleetWorkload(scenario, index, probe_samples, root_seed),
        &hooks);
    result.fleetSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    auto observations = attack::probeObservations(result.report.completed);
    attack::winsorizeObservations(observations,
                                  attack::MeasurementVector::LastRoundTime);

    attack::AttackConfig attack_cfg;
    attack_cfg.assumedPolicy = gpu.policy; // Attacker knows the defense.
    attack_cfg.measurement = attack::MeasurementVector::LastRoundTime;
    const attack::CorrelationAttack attacker(attack_cfg);
    attack::EncryptionService reference(gpu, bench::victimKey());
    result.attack =
        attacker.attackKey(observations, reference.lastRoundKey());
    return result;
}

const char *
placementName(bool pinned)
{
    return pinned ? "pinned" : "sprayed";
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = rcoal::bench::parseBenchArgs(argc, argv, 48);

    printBanner("Fleet: correlation attack against a replicated service");
    std::printf(
        "victim: AES-128 behind %u replicas, %u probe samples; probes\n"
        "either pinned to replica 0 or sprayed through the router,\n"
        "against 4 zipf-skewed background tenants with bursts\n\n",
        kReplicas, opts.samples);

    const auto base = core::CoalescingPolicy::baseline();
    const auto rcoal_policy = core::CoalescingPolicy::rss(8, true);
    std::vector<Scenario> scenarios;
    for (const auto &coalescing :
         {std::pair{"BASE", base}, std::pair{"RSS+RTS", rcoal_policy}}) {
        for (fleet::RoutingPolicy routing :
             {fleet::RoutingPolicy::RoundRobin,
              fleet::RoutingPolicy::JoinShortestQueue,
              fleet::RoutingPolicy::TenantAffinity}) {
            for (bool pinned : {true, false}) {
                scenarios.push_back(Scenario{coalescing.first,
                                             coalescing.second, routing,
                                             pinned});
            }
        }
    }

    const auto results = rcoal::bench::benchPool().parallelMap(
        scenarios.size(), [&](std::size_t i) {
            return runScenario(scenarios[i], i, opts.samples, opts.seed,
                               opts.telemetryInterval);
        });

    rcoal::TablePrinter table(
        {"coalesce", "routing", "probes", "probe p50", "p99", "p999",
         "req/s", "rej", "fleet corr", "avg corr", "bytes"});
    for (const auto &r : results) {
        const auto &probe = r.report.probeLatency;
        table.addRow(
            {r.scenario.coalescingName,
             fleet::routingPolicyName(r.scenario.routing),
             placementName(r.scenario.pinned),
             rcoal::TablePrinter::num(probe.p50, 0),
             rcoal::TablePrinter::num(probe.p99, 0),
             rcoal::TablePrinter::num(probe.p999, 0),
             rcoal::TablePrinter::num(r.report.throughputReqPerSec, 0),
             rcoal::TablePrinter::num(
                 static_cast<std::int64_t>(r.report.rejected)),
             rcoal::TablePrinter::num(r.auditor->correlation(kFleet), 4),
             rcoal::TablePrinter::num(r.attack.avgCorrectCorrelation, 4),
             rcoal::TablePrinter::num(r.attack.bytesRecovered) + "/16"});
    }
    table.print();

    // The operator's latency view, per replica: an attacker pinned to
    // replica 0 shows up as a latency and occupancy skew long before
    // any key byte falls.
    std::printf("\nper-replica latency (all requests, cycles):\n");
    for (const auto &r : results) {
        std::printf("  %-8s %-4s %-8s", r.scenario.coalescingName,
                    fleet::routingPolicyName(r.scenario.routing),
                    placementName(r.scenario.pinned));
        for (const auto &rep : r.report.replicas) {
            std::printf("  [%u] n=%-4zu p50 %-6.0f p99 %-6.0f p999 %-6.0f",
                        rep.replica, rep.allLatency.count,
                        rep.allLatency.p50, rep.allLatency.p99,
                        rep.allLatency.p999);
        }
        std::printf("\n");
    }

    // The monitoring view: per-replica + aggregate auditor correlation.
    // Pinning concentrates the attacker's sample on one replica's
    // auditor; spraying dilutes every per-replica series while the
    // fleet aggregate still accumulates the full sample — the reason
    // the aggregate gauge exists.
    std::printf("\nleakage auditors (per-replica corr | n, then fleet):\n");
    for (const auto &r : results) {
        std::printf("  %-8s %-4s %-8s", r.scenario.coalescingName,
                    fleet::routingPolicyName(r.scenario.routing),
                    placementName(r.scenario.pinned));
        for (unsigned rep = 0; rep < kReplicas; ++rep) {
            std::printf("  [%u] %+0.3f|%-3zu", rep,
                        r.auditor->correlation(rep),
                        r.auditor->samples(rep));
        }
        std::printf("  fleet %+0.4f|%zu%s\n",
                    r.auditor->correlation(kFleet),
                    r.auditor->samples(kFleet),
                    r.auditor->alerting() ? "  ALERT" : "");
    }

    // The placement axis acts through contention, not randomness: BASE
    // coalescing is deterministic, so probes from different replicas
    // are directly comparable and the only noise placement adds is
    // co-tenant load. Pinning concentrates the probe stream AND its
    // share of routed tenants on one machine; under round-robin that
    // self-inflicted contention can dilute the attacker more than
    // spraying does. What must hold — and what the summary line below
    // reports — is that RCoal floors the strongest placement an
    // attacker can pick, so security never rests on routing luck.
    std::printf("\npinned vs sprayed (avg correct-guess correlation):\n");
    double base_best = 0.0, rcoal_best = 0.0;
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        const auto &pinned = results[i];
        const auto &sprayed = results[i + 1];
        const double delta = pinned.attack.avgCorrectCorrelation -
                             sprayed.attack.avgCorrectCorrelation;
        std::printf("  %-8s %-4s pinned %+0.4f vs sprayed %+0.4f "
                    "(delta %+0.4f)\n",
                    pinned.scenario.coalescingName,
                    fleet::routingPolicyName(pinned.scenario.routing),
                    pinned.attack.avgCorrectCorrelation,
                    sprayed.attack.avgCorrectCorrelation, delta);
    }
    for (const auto &r : results) {
        double &best = std::string(r.scenario.coalescingName) == "BASE"
                           ? base_best
                           : rcoal_best;
        best = std::max(best, r.attack.avgCorrectCorrelation);
    }
    std::printf("  strongest cell: BASE %+0.4f vs RSS+RTS %+0.4f "
                "(attacker picks placement; RCoal floors every choice)\n",
                base_best, rcoal_best);

    // Autoscaler showcase: a cold 3-replica fleet under a heavier
    // tenant mix, growing on the queue-depth SLO it reads back from
    // the telemetry registry.
    {
        const Scenario scenario{"BASE", base,
                                fleet::RoutingPolicy::JoinShortestQueue,
                                false};
        const sim::GpuConfig gpu =
            fleetGpu(scenario, scenarios.size(), opts.seed);
        fleet::FleetConfig cfg;
        cfg.numReplicas = kReplicas;
        cfg.routing = scenario.routing;
        cfg.autoscaler.enabled = true;
        cfg.autoscaler.evalIntervalCycles = 25'000;
        cfg.autoscaler.queueDepthSlo = 4.0;
        cfg.autoscaler.scaleDownQueueDepth = 0.5;
        cfg.autoscaler.cooldownCycles = 50'000;
        fleet::FleetWorkloadSpec spec = fleetWorkload(
            scenario, scenarios.size(), opts.samples, opts.seed);
        spec.tenants.baseMeanGapCycles = 1500.0;

        const fleet::FleetServer fleet(gpu, fleetServe(), cfg,
                                       rcoal::bench::victimKey());
        const fleet::FleetReport report = fleet.run(spec);
        std::printf("\nautoscaler (cold start, JSQ, heavy tenants): "
                    "%.2f active replicas avg, %zu actions\n",
                    report.meanActiveReplicas,
                    report.autoscalerActions.size());
        for (const auto &action : report.autoscalerActions) {
            std::printf("  @%-10llu %u -> %u (mean depth %.2f)\n",
                        static_cast<unsigned long long>(action.cycle),
                        action.fromReplicas, action.toReplicas,
                        action.meanQueueDepth);
        }
    }

    for (const auto &r : results) {
        rcoal::bench::engineReport().record(
            "fleet", r.report.completed.size(), r.fleetSeconds);
    }

    // Fleet SLO numbers into the engine report: the aggregate and the
    // per-replica p50/p99/p999 plus throughput per scenario, keyed by
    // (coalescing, routing, placement).
    auto &engine = rcoal::bench::engineReport();
    std::string fleet_json = "{";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const auto &all = r.report.allLatency;
        fleet_json += strprintf(
            "%s\"%s/%s/%s\":{\"p50\":%.0f,\"p99\":%.0f,\"p999\":%.0f,"
            "\"req_per_s\":%.1f,\"rejected\":%llu,"
            "\"fleet_corr\":%.6f}",
            i == 0 ? "" : ",", r.scenario.coalescingName,
            fleet::routingPolicyName(r.scenario.routing),
            placementName(r.scenario.pinned), all.p50, all.p99, all.p999,
            r.report.throughputReqPerSec,
            static_cast<unsigned long long>(r.report.rejected),
            r.auditor->correlation(kFleet));
    }
    fleet_json += "}";
    engine.setExtra("fleet_slo", fleet_json);
    engine.setExtra("fleet_replicas", std::to_string(kReplicas));

    rcoal::bench::writeEngineReport();
    return 0;
}
