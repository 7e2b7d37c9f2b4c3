/**
 * @file
 * fleet_autoscale: three RSS+RTS(M=8) replicas behind JSQ routing with
 * probes sprayed through the router, under fleet_attack's tenant mix
 * (4 zipf tenants, base gap 6000 cycles, bursts, sizes {32,64}). The
 * queue-depth autoscaler starts from a cold fleet with the showcase
 * knobs (eval 25k, SLO 4, scale-down 0.5, cooldown 50k); a FleetTelemetry
 * sampler and FleetLeakageAuditor are attached.
 *
 * A round runs kScenarios independent fleets, each with its own
 * seed-derived tenant, probe and GPU streams.
 */

#include <optional>
#include <set>

#include "layers.hpp"
#include "rcoal/aes/key_schedule.hpp"
#include "rcoal/attack/served_attack.hpp"
#include "rcoal/fleet/fleet.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"

namespace perfbench {

namespace {

using namespace rcoal;

constexpr unsigned kScenarios = 5;
constexpr unsigned kProbes = 8;
constexpr unsigned kReplicas = 3;
constexpr Cycle kTelemetryInterval = 5000;

struct Scenario
{
    fleet::FleetWorkloadSpec spec;
    std::optional<fleet::FleetServer> server;
};

struct Setup
{
    std::array<std::uint8_t, 16> key{};
    std::vector<Scenario> scenarios;
    aes::Block lastRoundKey{};
    std::optional<attack::CorrelationAttack> attacker;
};

Setup
setUp(std::uint64_t seed)
{
    Setup s;
    s.key = victimKey(seed);
    serve::ServeConfig serve_cfg;
    serve_cfg.queueCapacity = 64;
    serve_cfg.maxBatchRequests = 4;
    serve_cfg.batchTimeoutCycles = 3000;
    serve_cfg.smsPerKernel = 5;

    fleet::FleetConfig fleet_cfg;
    fleet_cfg.numReplicas = kReplicas;
    fleet_cfg.routing = fleet::RoutingPolicy::JoinShortestQueue;
    fleet_cfg.autoscaler.enabled = true;
    fleet_cfg.autoscaler.evalIntervalCycles = 25'000;
    fleet_cfg.autoscaler.queueDepthSlo = 4.0;
    fleet_cfg.autoscaler.scaleDownQueueDepth = 0.5;
    fleet_cfg.autoscaler.cooldownCycles = 50'000;

    for (unsigned k = 0; k < kScenarios; ++k) {
        const std::uint64_t root = scenarioSeed(seed, k);
        sim::GpuConfig gpu = sim::GpuConfig::paperBaseline();
        gpu.policy = core::CoalescingPolicy::rss(8, true);
        gpu.seed = streamSeed(root, Stream::Gpu);
        gpu.validate();

        Scenario sc;
        sc.spec.probeSamples = kProbes;
        sc.spec.probeLines = 32;
        sc.spec.probeSeed = streamSeed(root, Stream::Plaintext);
        sc.spec.probeThinkCycles = 200;
        sc.spec.pinProbesToReplica = -1;
        sc.spec.tenants.tenants = 4;
        sc.spec.tenants.baseMeanGapCycles = 6000.0;
        sc.spec.tenants.zipfExponent = 1.0;
        sc.spec.tenants.burstProbability = 0.05;
        sc.spec.tenants.burstLength = 4;
        sc.spec.tenants.burstRateFactor = 4.0;
        sc.spec.tenants.lineChoices = {32, 64};
        sc.spec.tenants.seed = streamSeed(root, Stream::Tenants);
        sc.spec.tenants.validate();
        // The constructor validates the fleet and serve configs.
        sc.server.emplace(gpu, serve_cfg, fleet_cfg, s.key);
        s.scenarios.push_back(std::move(sc));
    }

    const aes::KeySchedule schedule(s.key, aes::KeySize::Aes128);
    s.lastRoundKey = schedule.roundKey(schedule.rounds());
    s.attacker.emplace(
        attackConfig(core::CoalescingPolicy::rss(8, true), seed));
    return s;
}

struct ScenarioRun
{
    fleet::FleetReport report;
    std::vector<attack::EncryptionObservation> observations; ///< Raw.
    attack::KeyAttackResult attack;
    std::uint64_t samples = 0;
    std::vector<double> nsPerCycle;
};

struct Round
{
    std::vector<ScenarioRun> runs;
    double runS = 0.0;
    double attackS = 0.0;
};

ScenarioRun
runScenario(const Setup &s, const Scenario &sc, bool telemetry,
            SpanStore *spans, Round &round)
{
    ScenarioRun out;
    ScopedSpan scenario_span(spans, "scenario");
    telemetry::MetricRegistry registry;
    telemetry::TelemetrySampler sampler(registry, kTelemetryInterval);
    telemetry::FleetLeakageAuditor auditor(
        registry, telemetry::LeakageAuditor::Config{}, kReplicas);
    fleet::FleetTelemetry hooks;
    hooks.sampler = &sampler;
    hooks.auditor = &auditor;
    IntervalClock clock;
    if (spans != nullptr && telemetry)
        clock.attach(sampler);

    {
        ScopedSpan span(spans, telemetry ? "run" : "run_untelemetered");
        const Stopwatch run;
        out.report = sc.server->run(sc.spec, telemetry ? &hooks : nullptr);
        round.runS += run.wallSeconds();
    }
    out.observations = attack::probeObservations(out.report.completed);
    if (!telemetry)
        return out;

    {
        ScopedSpan span(spans, "attackKey");
        const Stopwatch attack_watch;
        auto observations = out.observations;
        attack::winsorizeObservations(
            observations, attack::MeasurementVector::LastRoundTime);
        out.attack = s.attacker->attackKey(observations, s.lastRoundKey);
        round.attackS += attack_watch.wallSeconds();
    }
    out.samples = sampler.samplesTaken();
    out.nsPerCycle = clock.nsPerCycle();
    return out;
}

Round
runRound(const Setup &s, bool telemetry, SpanStore *spans)
{
    Round round;
    for (const Scenario &sc : s.scenarios)
        round.runs.push_back(runScenario(s, sc, telemetry, spans, round));
    return round;
}

Digest
roundDigest(const Round &round, bool with_attack)
{
    Digest d;
    for (const ScenarioRun &run : round.runs) {
        const fleet::FleetReport &report = run.report;
        digestObservations(d, run.observations);
        digestCompleted(d, report.completed);
        for (const unsigned replica : report.completedReplica)
            d.u64(replica);
        for (const fleet::ReplicaReport &rep : report.replicas) {
            for (const std::uint64_t v :
                 {std::uint64_t{rep.replica}, std::uint64_t{rep.completed},
                  std::uint64_t{rep.probeCompleted}, rep.admitted,
                  rep.rejected, rep.kernelsLaunched, rep.activeCycles}) {
                d.u64(v);
            }
            digestLatency(d, rep.allLatency);
            d.bytes(rep.finalState.data(), rep.finalState.size());
        }
        digestLatency(d, report.allLatency);
        digestLatency(d, report.probeLatency);
        for (const std::uint64_t v :
             {report.totalCycles, report.admitted, report.rejected}) {
            d.u64(v);
        }
        for (const fleet::AutoscalerAction &a : report.autoscalerActions) {
            d.u64(a.cycle);
            d.u64(a.fromReplicas);
            d.u64(a.toReplicas);
            d.f64(a.meanQueueDepth);
        }
        d.f64(report.meanActiveReplicas);
        if (with_attack) {
            digestKeyAttack(d, run.attack);
            d.u64(run.samples);
        }
    }
    return d;
}

/** One retired batch kernel, recovered from the requests it served. */
struct KernelKey
{
    unsigned replica;
    Cycle launched;
    Cycle completed;
    auto operator<=>(const KernelKey &) const = default;
};

/** Simulated totals of one round (identical in every round). */
struct Totals
{
    double requests = 0, cycles = 0, kernels = 0, kernelCycles = 0,
           accesses = 0, launched = 0, rejected = 0, queueDepth = 0,
           actions = 0, activeReplicas = 0;
    std::vector<double> probeLatency;
};

Totals
totals(const Round &round)
{
    Totals t;
    for (const ScenarioRun &run : round.runs) {
        const fleet::FleetReport &report = run.report;
        t.requests += static_cast<double>(report.completed.size());
        t.cycles += static_cast<double>(report.totalCycles);
        std::set<KernelKey> seen;
        for (std::size_t i = 0; i < report.completed.size(); ++i) {
            const serve::CompletedRequest &r = report.completed[i];
            if (r.isProbe)
                t.probeLatency.push_back(
                    static_cast<double>(r.latencyCycles()));
            if (!seen.insert({report.completedReplica[i], r.launched,
                              r.completed})
                     .second) {
                continue;
            }
            ++t.kernels;
            t.kernelCycles += r.kernelTotalTime;
            t.accesses += static_cast<double>(r.kernelTotalAccesses);
        }
        for (const fleet::ReplicaReport &rep : report.replicas) {
            t.launched += static_cast<double>(rep.kernelsLaunched);
            t.queueDepth += rep.meanQueueDepth /
                            static_cast<double>(report.replicas.size() *
                                                round.runs.size());
        }
        t.rejected += static_cast<double>(report.rejected);
        t.actions += static_cast<double>(report.autoscalerActions.size());
        t.activeReplicas += report.meanActiveReplicas /
                            static_cast<double>(round.runs.size());
    }
    return t;
}

/** Tenant plaintexts by request id, regenerated from the seed. */
std::unordered_map<std::uint64_t, std::vector<aes::Block>>
tenantPlaintexts(const Scenario &sc, const fleet::FleetReport &report)
{
    fleet::TenantLoadModel model(sc.spec.tenants);
    std::vector<serve::Request> requests;
    model.poll(report.totalCycles, requests);
    std::unordered_map<std::uint64_t, std::vector<aes::Block>> out;
    for (serve::Request &r : requests)
        out.emplace(r.id, std::move(r.plaintext));
    return out;
}

} // namespace

WorkloadResult
runFleetAutoscale(const Options &opts, SpanStore *spans)
{
    WorkloadResult result;
    Setup setup;
    const double setup_s =
        medianSetupSeconds([&] { setup = setUp(opts.seed); });

    const Round reference = runRound(setup, true, nullptr);
    for (std::size_t k = 0; k < reference.runs.size(); ++k) {
        const Scenario &sc = setup.scenarios[k];
        const fleet::FleetReport &report = reference.runs[k].report;
        checkCompleted(report.completed, setup.key, sc.spec.probeSeed,
                       sc.spec.probeLines, tenantPlaintexts(sc, report),
                       result.checks);
    }
    result.digest = roundDigest(reference, true);
    const Totals t = totals(reference);

    Round first_traced;
    const ServedPasses passes = runServedPasses(
        opts, spans, "fleet_autoscale", reference,
        static_cast<std::uint64_t>(t.requests),
        [&](bool telemetry, SpanStore *round_spans) {
            return runRound(setup, telemetry, round_spans);
        },
        roundDigest, result.checks, first_traced);

    std::vector<double> estimates, ns_per_cycle;
    double samples = 0;
    for (const ScenarioRun &run : first_traced.runs) {
        ns_per_cycle.insert(ns_per_cycle.end(), run.nsPerCycle.begin(),
                            run.nsPerCycle.end());
        samples += static_cast<double>(run.samples);
        estimates.push_back(
            estimateNs(*setup.attacker, run.observations, opts.seed));
    }
    MetricSet &m = result.metrics;
    m.set("setup_s", setup_s, "s");
    reportServedTimes(m, passes, "fleet_autoscale", t.requests, t.cycles,
                      "fleet.run_s", kScenarios, median(estimates));
    m.set("kernel_cycles_mean", t.kernelCycles / t.kernels, "cycles");
    m.set("probe_p99_cycles", percentile(t.probeLatency, 99.0), "cycles");

    if (!passes.traced.empty()) {
        m.set("sim.interval_ns_per_cycle_p50", percentile(ns_per_cycle, 50.0),
              "ns");
        m.set("sim.interval_ns_per_cycle_p90", percentile(ns_per_cycle, 90.0),
              "ns");
        m.set("sim.host_ns_per_access", first_traced.runS * 1e9 / t.accesses,
              "ns");
        m.set("sim.coalesced_accesses", t.accesses, "count");
        std::vector<std::uint64_t> probe_seeds;
        for (const Scenario &sc : setup.scenarios)
            probe_seeds.push_back(sc.spec.probeSeed);
        reportProbeCoreLayer(m, core::CoalescingPolicy::rss(8, true),
                             setup.key, probe_seeds, kProbes, opts.seed);
        m.set("serve.kernels_launched", t.launched, "count");
        m.set("serve.batch_requests_mean",
              t.launched == 0 ? 0.0 : t.requests / t.launched, "requests");
        m.set("serve.queue_depth_mean", t.queueDepth, "requests");
        m.set("serve.rejected", t.rejected, "count");
        m.set("fleet.autoscaler_actions", t.actions, "count");
        m.set("fleet.active_replicas_mean", t.activeReplicas, "replicas");
        m.set("telemetry.samples", samples, "count");
    }
    m.set("peak_rss_mb", peakRssMb(), "MiB");
    return result;
}

} // namespace perfbench
