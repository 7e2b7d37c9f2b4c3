/**
 * @file
 * The correlation attack, re-mounted against the rcoal::serve frontend
 * under background load.
 *
 * The paper's attacker enjoys a dedicated device: every probe runs
 * alone, so the measured last-round window is exactly the probe's own.
 * A production encryption service looks different — probes are batched
 * with co-tenant requests and their kernels share the machine with
 * co-resident kernels. This driver quantifies how much that serving
 * structure alone (no RCoal, baseline coalescing) dilutes the timing
 * channel, per batching policy and background-load level, next to the
 * latency/throughput cost the operator pays — and contrasts it with an
 * RSS+RTS(M=8) deployment, where the channel is gone at the source.
 *
 * Every scenario also runs with live telemetry attached: a per-scenario
 * metric registry, a skip-safe periodic sampler, and the online
 * LeakageAuditor whose correlation gauge is the leakage SLO. The BASE
 * scenarios are expected to trip the alert; the RSS+RTS scenarios must
 * stay quiet. --telemetry-out DIR additionally writes one Prometheus
 * text-exposition snapshot per scenario (lint-checked before writing).
 *
 * Each (coalescing, policy, load) scenario is an independent
 * single-threaded simulation; scenarios spread over the bench pool, and
 * every number printed is byte-identical for any RCOAL_THREADS.
 */

#include <cstdio>
#include <map>
#include <memory>

#include "rcoal/attack/served_attack.hpp"
#include "rcoal/common/logging.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"
#include "rcoal/telemetry/sampler.hpp"
#include "rcoal/trace/chrome_trace.hpp"
#include "rcoal/trace/tracer.hpp"
#include "support/bench_support.hpp"

namespace {

using namespace rcoal;

/** One (coalescing policy, batching policy, load) cell of the sweep. */
struct Scenario
{
    const char *coalescingName;  ///< "BASE" or "RSS+RTS" (table/labels).
    const char *coalescingToken; ///< Filename-safe form.
    core::CoalescingPolicy gpuPolicy;
    serve::BatchPolicy policy;
    const char *loadName;
    double meanGapCycles; ///< 0 = no background traffic.
    std::vector<unsigned> lineChoices; ///< Background request sizes.
};

/**
 * The two offered-load levels above zero. Light traffic is sparse and
 * small (probes are occasionally batched with, or co-resident with, a
 * one-warp tenant); heavy traffic saturates the queue with mixed sizes.
 */
const std::vector<unsigned> kLightSizes = {32};
const std::vector<unsigned> kHeavySizes = {32, 64, 96, 128};

/** A scenario's results: the operator's view and the attacker's. */
struct ScenarioResult
{
    Scenario scenario;
    serve::ServeReport report;
    attack::KeyAttackResult attack;
    double serveSeconds = 0.0;
    double attackSeconds = 0.0;
    /** Live-telemetry state; outlives the run for rendering. */
    std::unique_ptr<telemetry::MetricRegistry> registry;
    std::unique_ptr<telemetry::TelemetrySampler> sampler;
    std::unique_ptr<telemetry::LeakageAuditor> auditor;
};

/** The full deterministic configuration of one scenario cell. */
struct ScenarioSetup
{
    sim::GpuConfig gpu;
    serve::ServeConfig cfg;
    serve::WorkloadSpec spec;
};

ScenarioSetup
makeScenarioSetup(const Scenario &scenario, std::size_t index,
                  unsigned probe_samples, std::uint64_t root_seed)
{
    // Everything below derives from (root_seed, index) only, so the
    // scenario is a pure function of its cell regardless of which
    // worker runs it.
    ScenarioSetup setup;
    setup.gpu = sim::GpuConfig::paperBaseline();
    setup.gpu.seed = Rng::deriveSeed(root_seed, index + 1);
    setup.gpu.policy = scenario.gpuPolicy;

    setup.cfg.batchPolicy = scenario.policy;
    setup.cfg.queueCapacity = 64;
    setup.cfg.maxBatchRequests = 4;
    setup.cfg.batchTimeoutCycles = 3000;
    setup.cfg.smsPerKernel = 5;
    // Warm boot shares one machine prefix across the sweep; its
    // randomness derives from warmBootSeed (the ServeConfig default),
    // never the per-scenario gpu seed, so every cell with the same
    // coalescing policy can fork the same snapshot.
    setup.cfg.warmBootKernels = bench::benchWarmup();

    setup.spec.probeSamples = probe_samples;
    setup.spec.probeLines = 32;
    // Probe plaintext stream root = the solo harness's plaintext seed,
    // so the attacker submits the same probe sequence in both worlds.
    setup.spec.probeSeed = 7;
    setup.spec.probeThinkCycles = 200;
    setup.spec.backgroundMeanGapCycles = scenario.meanGapCycles;
    setup.spec.backgroundLineChoices = scenario.lineChoices;
    setup.spec.backgroundSeed = Rng::deriveSeed(root_seed, 1000 + index);
    return setup;
}

ScenarioResult
runScenario(const Scenario &scenario, std::size_t index,
            unsigned probe_samples, std::uint64_t root_seed,
            Cycle telemetry_interval,
            const sim::MachineSnapshot *warm_boot)
{
    const ScenarioSetup setup =
        makeScenarioSetup(scenario, index, probe_samples, root_seed);
    const sim::GpuConfig &gpu = setup.gpu;
    const serve::ServeConfig &cfg = setup.cfg;
    const serve::WorkloadSpec &spec = setup.spec;

    ScenarioResult result;
    result.scenario = scenario;

    // Per-scenario telemetry: own registry (exposition independent of
    // RCOAL_THREADS), skip-safe sampler, and the leakage SLO auditor.
    result.registry = std::make_unique<telemetry::MetricRegistry>();
    result.sampler = std::make_unique<telemetry::TelemetrySampler>(
        *result.registry, telemetry_interval);
    result.auditor = std::make_unique<telemetry::LeakageAuditor>(
        *result.registry, telemetry::LeakageAuditor::Config{},
        telemetry::MetricRegistry::Labels{
            {"policy", scenario.coalescingName}});
    serve::ServeTelemetry hooks;
    hooks.sampler = result.sampler.get();
    hooks.auditor = result.auditor.get();

    auto start = std::chrono::steady_clock::now();
    auto set = attack::collectSamplesServed(gpu, cfg, bench::victimKey(),
                                            spec, &hooks, warm_boot);
    result.serveSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // The strong attacker clamps wildly slow probes (those that hit
    // co-tenant traffic) before correlating; see winsorizeObservations.
    attack::winsorizeObservations(set.observations,
                                  attack::MeasurementVector::LastRoundTime);

    attack::AttackConfig attack_cfg;
    attack_cfg.assumedPolicy = gpu.policy; // Attacker knows the defense.
    attack_cfg.measurement = attack::MeasurementVector::LastRoundTime;
    const attack::CorrelationAttack attacker(attack_cfg);
    attack::EncryptionService reference(gpu, bench::victimKey());

    start = std::chrono::steady_clock::now();
    // Serial attack: the scenarios themselves are the parallel axis.
    result.attack =
        attacker.attackKey(set.observations, reference.lastRoundKey());
    result.attackSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    result.report = std::move(set.report);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = rcoal::bench::parseBenchArgsWarm(argc, argv, 48);

    printBanner("Serve: correlation attack under background load");
    std::printf(
        "victim: AES-128, %u probe samples; probes batched with "
        "open-loop background traffic\n"
        "coalescing: BASE (attackable baseline) vs RSS+RTS(M=8)\n\n",
        opts.samples);

    const auto base = core::CoalescingPolicy::baseline();
    const auto rcoal_policy = core::CoalescingPolicy::rss(8, true);
    const std::vector<Scenario> scenarios = {
        {"BASE", "base", base, serve::BatchPolicy::Fcfs, "none", 0.0, {}},
        {"BASE", "base", base, serve::BatchPolicy::Fcfs, "light",
         20000.0, kLightSizes},
        {"BASE", "base", base, serve::BatchPolicy::Fcfs, "heavy", 1500.0,
         kHeavySizes},
        {"BASE", "base", base, serve::BatchPolicy::BatchFill, "none", 0.0,
         {}},
        {"BASE", "base", base, serve::BatchPolicy::BatchFill, "light",
         20000.0, kLightSizes},
        {"BASE", "base", base, serve::BatchPolicy::BatchFill, "heavy",
         1500.0, kHeavySizes},
        {"BASE", "base", base, serve::BatchPolicy::Sjf, "none", 0.0, {}},
        {"BASE", "base", base, serve::BatchPolicy::Sjf, "light", 20000.0,
         kLightSizes},
        {"BASE", "base", base, serve::BatchPolicy::Sjf, "heavy", 1500.0,
         kHeavySizes},
        {"RSS+RTS", "rss_rts", rcoal_policy, serve::BatchPolicy::Fcfs,
         "none", 0.0, {}},
        {"RSS+RTS", "rss_rts", rcoal_policy, serve::BatchPolicy::Fcfs,
         "light", 20000.0, kLightSizes},
        {"RSS+RTS", "rss_rts", rcoal_policy, serve::BatchPolicy::Fcfs,
         "heavy", 1500.0, kHeavySizes},
    };

    // Fork mode: build one warm-boot snapshot per distinct gpu
    // structure (here: per coalescing policy — scenario gpu configs
    // within a policy differ only in the seed, which snapshot restore
    // masks) and share it across the sweep. Replay mode leaves every
    // scenario to re-simulate its boot launches, which must be
    // byte-identical — the snapshot determinism tests and the CI
    // fork-vs-replay diff enforce exactly that.
    // std::map: node-based, so the snapshot addresses handed to warm[]
    // stay valid as more policies are inserted.
    std::map<std::string, sim::MachineSnapshot> boots;
    std::vector<const sim::MachineSnapshot *> warm(scenarios.size(),
                                                   nullptr);
    if (rcoal::bench::benchWarmup() > 0 &&
        rcoal::bench::benchCollectMode() == attack::CollectMode::Fork) {
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            const std::string token = scenarios[i].coalescingToken;
            auto it = boots.find(token);
            if (it == boots.end()) {
                const ScenarioSetup setup = makeScenarioSetup(
                    scenarios[i], i, opts.samples, opts.seed);
                const serve::EncryptionServer server(
                    setup.gpu, setup.cfg, rcoal::bench::victimKey());
                it = boots.emplace(token, server.warmBootSnapshot())
                         .first;
            }
            warm[i] = &it->second;
        }
    }

    const auto results = rcoal::bench::benchPool().parallelMap(
        scenarios.size(), [&](std::size_t i) {
            return runScenario(scenarios[i], i, opts.samples, opts.seed,
                               opts.telemetryInterval, warm[i]);
        });

    rcoal::TablePrinter table(
        {"coalesce", "policy", "load", "probe p50", "p95", "p99",
         "req/s", "queue", "SM%", "rej", "req/batch", "avg corr",
         "bytes"});
    for (const auto &r : results) {
        const auto &probe = r.report.probeLatency;
        table.addRow(
            {r.scenario.coalescingName,
             serve::batchPolicyName(r.scenario.policy),
             r.scenario.loadName,
             rcoal::TablePrinter::num(probe.p50, 0),
             rcoal::TablePrinter::num(probe.p95, 0),
             rcoal::TablePrinter::num(probe.p99, 0),
             rcoal::TablePrinter::num(r.report.throughputReqPerSec, 0),
             rcoal::TablePrinter::num(r.report.meanQueueDepth, 2),
             rcoal::TablePrinter::num(r.report.smOccupancy * 100.0, 1),
             rcoal::TablePrinter::num(
                 static_cast<std::int64_t>(r.report.rejected)),
             rcoal::TablePrinter::num(r.report.meanBatchRequests, 2),
             rcoal::TablePrinter::num(
                 r.attack.avgCorrectCorrelation, 4),
             rcoal::TablePrinter::num(r.attack.bytesRecovered) + "/16"});
    }
    table.print();

    // The security claim this driver exists to check: more background
    // load never helps the attacker. Scenarios are grouped per
    // (coalescing, batch policy) in load order (none, light, heavy).
    std::printf("\nleakage vs load (avg correct-guess correlation):\n");
    bool monotone = true;
    for (std::size_t group = 0; group < results.size(); group += 3) {
        const auto &head = results[group];
        double previous = head.attack.avgCorrectCorrelation;
        std::printf("  %-8s %-9s %+0.4f", head.scenario.coalescingName,
                    serve::batchPolicyName(head.scenario.policy),
                    previous);
        for (std::size_t i = group + 1; i < group + 3; ++i) {
            const double corr =
                results[i].attack.avgCorrectCorrelation;
            std::printf(" -> %+0.4f", corr);
            if (corr > previous)
                monotone = false;
            previous = corr;
        }
        std::printf("\n");
    }
    std::printf("  correlation non-increasing with load: %s\n",
                monotone ? "yes" : "NO");

    // The live leakage SLO: the online auditor watched every scenario
    // while it ran. BASE deployments must trip the alert; RSS+RTS must
    // stay quiet — if either fails, the gauge is not a usable SLO.
    std::printf("\nleakage SLO (online auditor, |corr| >= %.2f "
                "after %zu probes):\n",
                results[0].auditor->alertThreshold(),
                telemetry::LeakageAuditor::Config{}.minSamples);
    bool slo_base_trips = true;
    bool slo_rcoal_quiet = true;
    for (const auto &r : results) {
        const bool alert = r.auditor->alerting();
        std::printf("  %-8s %-9s %-5s corr=%+0.4f  alert=%s\n",
                    r.scenario.coalescingName,
                    serve::batchPolicyName(r.scenario.policy),
                    r.scenario.loadName, r.auditor->correlation(),
                    alert ? "FIRING" : "quiet");
        const bool is_base = r.scenario.gpuPolicy ==
                             core::CoalescingPolicy::baseline();
        // Loaded BASE cells genuinely dilute the channel (the point of
        // this driver); the SLO promise is that an *unloaded* BASE
        // service is caught, while RSS+RTS stays quiet at every load.
        if (is_base && r.scenario.meanGapCycles == 0.0 && !alert)
            slo_base_trips = false;
        if (!is_base && alert)
            slo_rcoal_quiet = false;
    }
    std::printf("  SLO separates BASE (firing) from RSS+RTS (quiet): "
                "%s\n",
                slo_base_trips && slo_rcoal_quiet ? "yes" : "NO");

    if (!opts.telemetryDir.empty()) {
        std::printf("\ntelemetry snapshots (%s):\n",
                    opts.telemetryDir.c_str());
        using rcoal::bench::lowered;
        for (const auto &r : results) {
            rcoal::bench::writePromSnapshot(
                opts.telemetryDir + "/" +
                    lowered(r.scenario.coalescingToken) + "_" +
                    lowered(serve::batchPolicyName(r.scenario.policy)) +
                    "_" + lowered(r.scenario.loadName) + ".prom",
                *r.registry);
        }
    }

    for (const auto &r : results) {
        rcoal::bench::engineReport().record(
            "serve", r.report.completed.size(), r.serveSeconds);
        rcoal::bench::engineReport().record("attack", 16 * 256,
                                            r.attackSeconds);
    }

    // Roll the per-kernel counter snapshots up into the engine report:
    // the numbers a perf regression in the machine itself would move
    // first, independent of the latency percentiles above.
    std::uint64_t kernels = 0;
    std::uint64_t kernel_cycles = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t prt_stalls = 0;
    std::uint64_t icn_stalls = 0;
    for (const auto &r : results) {
        kernels += r.report.kernels.size();
        for (const auto &snap : r.report.kernels) {
            kernel_cycles += snap.cycles;
            coalesced += snap.coalescedAccesses;
            prt_stalls += snap.prtStallCycles;
            icn_stalls += snap.icnStallCycles;
        }
    }
    auto &engine = rcoal::bench::engineReport();
    engine.setExtra("kernels_retired",
                    std::to_string(kernels));
    engine.setExtra("mean_kernel_cycles",
                    kernels == 0
                        ? "0"
                        : std::to_string(kernel_cycles / kernels));
    engine.setExtra("coalesced_accesses", std::to_string(coalesced));
    engine.setExtra("prt_stall_cycles", std::to_string(prt_stalls));
    engine.setExtra("icn_stall_cycles", std::to_string(icn_stalls));

    // Live-telemetry roll-up: the sampler's recorded time series for
    // the two saturated FCFS cells (one per coalescing policy) and the
    // final SLO gauge of every cell, so the engine report carries the
    // leakage trajectory next to the perf trajectory.
    engine.setExtra("telemetry_interval_cycles",
                    std::to_string(opts.telemetryInterval));
    std::string slo_json = "{";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        slo_json += strprintf(
            "%s\"%s/%s/%s\":%.6f", i == 0 ? "" : ",",
            r.scenario.coalescingName,
            serve::batchPolicyName(r.scenario.policy),
            r.scenario.loadName, r.auditor->correlation());
    }
    slo_json += "}";
    engine.setExtra("leakage_correlation", slo_json);
    for (const auto &r : results) {
        if (r.scenario.policy != serve::BatchPolicy::Fcfs ||
            r.scenario.meanGapCycles != 1500.0) {
            continue;
        }
        engine.setExtra(std::string("telemetry_series_") +
                            r.scenario.coalescingToken + "_fcfs_heavy",
                        r.sampler->seriesJson());
    }

    // --trace FILE: re-run one representative scenario (BASE, FCFS,
    // heavy load) with the tracer attached and export a Chrome/Perfetto
    // timeline of the whole serving stack.
    if (!opts.tracePath.empty()) {
        const std::size_t traced_index = 2; // {BASE, Fcfs, "heavy"}.
        const ScenarioSetup setup = makeScenarioSetup(
            scenarios[traced_index], traced_index, opts.samples,
            opts.seed);
        rcoal::trace::Tracer tracer;
        const serve::EncryptionServer server(setup.gpu, setup.cfg,
                                             rcoal::bench::victimKey());
        (void)server.run(setup.spec, &tracer);
        rcoal::trace::writeChromeTrace(opts.tracePath, tracer,
                                       setup.gpu.burstCycles);
        std::printf("\n[trace] wrote %s (%llu events recorded, "
                    "%llu dropped)%s\n",
                    opts.tracePath.c_str(),
                    static_cast<unsigned long long>(
                        tracer.totalRecorded()),
                    static_cast<unsigned long long>(
                        tracer.totalDropped()),
                    tracer.totalRecorded() == 0
                        ? " — build with -DRCOAL_TRACE=ON to record "
                          "events"
                        : "");
    }

    rcoal::bench::writeEngineReport();
    return 0;
}
