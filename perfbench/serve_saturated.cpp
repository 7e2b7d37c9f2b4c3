/**
 * @file
 * serve_saturated: the BASE / FCFS / heavy cell of
 * serve_attack_under_load with the same ServeConfig (queue 64, batch 4,
 * three five-SM gangs, warm boot 2). Open-loop background traffic with
 * mean gap 1500 cycles and sizes {32,64,96,128} keeps every gang busy;
 * a closed-loop probe client (think time 200 cycles) is the attacker.
 * TelemetrySampler and LeakageAuditor are attached at a 5000-cycle
 * interval; each scenario's probe observations are winsorized and
 * attacked.
 *
 * A round runs kScenarios independent instances of the cell, each with
 * its own seed-derived background, probe and GPU streams, so the work
 * a round measures depends little on any one stream.
 */

#include <optional>

#include "layers.hpp"
#include "rcoal/aes/key_schedule.hpp"
#include "rcoal/attack/served_attack.hpp"
#include "rcoal/serve/load_generator.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"

namespace perfbench {

namespace {

using namespace rcoal;

constexpr unsigned kScenarios = 4;
constexpr unsigned kProbes = 4;
constexpr Cycle kTelemetryInterval = 5000;
constexpr std::uint64_t kBackgroundFirstId = 1'000'000'000;

struct Scenario
{
    sim::GpuConfig gpu;
    serve::WorkloadSpec spec;
};

struct Setup
{
    std::array<std::uint8_t, 16> key{};
    serve::ServeConfig cfg;
    std::vector<Scenario> scenarios;
    aes::Block lastRoundKey{};
    sim::MachineSnapshot warm;
    std::optional<attack::CorrelationAttack> attacker;
    double bootS = 0.0; ///< warmBootSnapshot() wall time.
};

Setup
setUp(std::uint64_t seed)
{
    Setup s;
    s.key = victimKey(seed);
    s.cfg.batchPolicy = serve::BatchPolicy::Fcfs;
    s.cfg.queueCapacity = 64;
    s.cfg.maxBatchRequests = 4;
    s.cfg.batchTimeoutCycles = 3000;
    s.cfg.smsPerKernel = 5;
    s.cfg.warmBootKernels = 2;

    for (unsigned k = 0; k < kScenarios; ++k) {
        const std::uint64_t root = scenarioSeed(seed, k);
        Scenario sc;
        sc.gpu = sim::GpuConfig::paperBaseline();
        sc.gpu.policy = core::CoalescingPolicy::baseline();
        sc.gpu.seed = streamSeed(root, Stream::Gpu);
        sc.gpu.validate();
        s.cfg.validate(sc.gpu);
        sc.spec.probeSamples = kProbes;
        sc.spec.probeLines = 32;
        sc.spec.probeSeed = streamSeed(root, Stream::Plaintext);
        sc.spec.probeThinkCycles = 200;
        sc.spec.backgroundMeanGapCycles = 1500.0;
        sc.spec.backgroundLineChoices = {32, 64, 96, 128};
        sc.spec.backgroundSeed = streamSeed(root, Stream::Background);
        s.scenarios.push_back(std::move(sc));
    }

    const aes::KeySchedule schedule(s.key, aes::KeySize::Aes128);
    s.lastRoundKey = schedule.roundKey(schedule.rounds());
    // Boot randomness derives from ServeConfig::warmBootSeed, not the
    // GPU seed, so one snapshot serves every scenario.
    const serve::EncryptionServer server(s.scenarios.front().gpu, s.cfg,
                                         s.key);
    const Stopwatch boot;
    s.warm = server.warmBootSnapshot();
    s.bootS = boot.wallSeconds();
    s.attacker.emplace(attackConfig(core::CoalescingPolicy::baseline(), seed));
    return s;
}

/** One scenario's outputs. */
struct ScenarioRun
{
    std::vector<attack::EncryptionObservation> observations; ///< Raw.
    serve::ServeReport report;
    attack::KeyAttackResult attack;
    /** Registry roll-ups (telemetry on). */
    double warpInstructions = 0, coalescedAccesses = 0, prtStalls = 0,
           icnStalls = 0, xbarPackets = 0, rowHits = 0, rowMisses = 0,
           activates = 0;
    std::uint64_t samples = 0;
    std::vector<double> nsPerCycle;
};

struct Round
{
    std::vector<ScenarioRun> runs;
    double runS = 0.0;
    double attackS = 0.0;
};

/**
 * One serving run plus the attack. With @p telemetry off the sampler
 * and auditor stay detached (the telemetry-overhead probe); @p spans
 * adds the benchmark's interval clock and spans around the calls.
 */
ScenarioRun
runScenario(const Setup &s, const Scenario &sc, bool telemetry,
            SpanStore *spans, Round &round)
{
    ScenarioRun out;
    ScopedSpan scenario_span(spans, "scenario");
    telemetry::MetricRegistry registry;
    telemetry::TelemetrySampler sampler(registry, kTelemetryInterval);
    telemetry::LeakageAuditor auditor(registry,
                                      telemetry::LeakageAuditor::Config{},
                                      {{"policy", "BASE"}});
    serve::ServeTelemetry hooks;
    hooks.sampler = &sampler;
    hooks.auditor = &auditor;
    IntervalClock clock;
    if (spans != nullptr && telemetry)
        clock.attach(sampler);

    {
        ScopedSpan span(spans, telemetry ? "run" : "run_untelemetered");
        const Stopwatch run;
        auto set = attack::collectSamplesServed(
            sc.gpu, s.cfg, s.key, sc.spec, telemetry ? &hooks : nullptr,
            &s.warm);
        round.runS += run.wallSeconds();
        out.observations = std::move(set.observations);
        out.report = std::move(set.report);
    }
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
    out.warpInstructions =
        counterSum(registry, "rcoal_warp_instructions_total");
    out.coalescedAccesses =
        counterSum(registry, "rcoal_coalesced_accesses_total");
    out.prtStalls = counterSum(registry, "rcoal_sm_prt_stall_cycles_total");
    out.icnStalls = counterSum(registry, "rcoal_sm_icn_stall_cycles_total");
    out.xbarPackets = counterSum(registry, "rcoal_xbar_packets_total");
    out.rowHits = counterSum(registry, "rcoal_dram_row_hits_total");
    out.rowMisses = counterSum(registry, "rcoal_dram_row_misses_total");
    out.activates = counterSum(registry, "rcoal_dram_activates_total");
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

/** Everything the digest and the cross-pass comparisons cover. */
Digest
roundDigest(const Round &round, bool with_attack)
{
    Digest d;
    for (const ScenarioRun &run : round.runs) {
        const serve::ServeReport &report = run.report;
        digestObservations(d, run.observations);
        digestCompleted(d, report.completed);
        for (const serve::KernelSnapshot &k : report.kernels) {
            for (const std::uint64_t v :
                 {k.launchId, std::uint64_t{k.gang},
                  std::uint64_t{k.batchRequests}, k.launchedAt,
                  k.finishedAt, k.cycles, k.coalescedAccesses,
                  k.lastRoundAccesses, k.predictedLastRoundAccesses,
                  k.prtStallCycles, k.icnStallCycles}) {
                d.u64(v);
            }
        }
        digestLatency(d, report.probeLatency);
        digestLatency(d, report.allLatency);
        for (const std::uint64_t v :
             {report.totalCycles, report.admitted, report.rejected,
              report.kernelsLaunched}) {
            d.u64(v);
        }
        d.f64(report.meanQueueDepth);
        d.f64(report.smOccupancy);
        if (with_attack) {
            digestKeyAttack(d, run.attack);
            for (const double v :
                 {run.warpInstructions, run.coalescedAccesses,
                  run.prtStalls, run.icnStalls, run.xbarPackets,
                  run.rowHits, run.rowMisses, run.activates}) {
                d.f64(v);
            }
            d.u64(run.samples);
        }
    }
    return d;
}

/** Background plaintexts by request id, regenerated from the seed. */
std::unordered_map<std::uint64_t, std::vector<aes::Block>>
backgroundPlaintexts(const Scenario &sc, const serve::ServeReport &report)
{
    std::uint64_t max_id = 0;
    for (const serve::CompletedRequest &r : report.completed) {
        if (!r.isProbe)
            max_id = std::max(max_id, r.id);
    }
    std::unordered_map<std::uint64_t, std::vector<aes::Block>> out;
    if (max_id < kBackgroundFirstId)
        return out;
    serve::OpenLoopGenerator generator(sc.spec.backgroundMeanGapCycles,
                                       sc.spec.backgroundLineChoices,
                                       sc.spec.backgroundSeed,
                                       kBackgroundFirstId);
    std::vector<serve::Request> requests;
    for (Cycle now = 0; generator.issued() <= max_id - kBackgroundFirstId;
         now += 100'000) {
        generator.poll(now, requests);
    }
    for (serve::Request &r : requests)
        out.emplace(r.id, std::move(r.plaintext));
    return out;
}

/** Simulated totals of one round (identical in every round). */
struct Totals
{
    double requests = 0, cycles = 0, kernels = 0, kernelCycles = 0;
    std::vector<double> probeLatency;
};

Totals
totals(const Round &round)
{
    Totals t;
    for (const ScenarioRun &run : round.runs) {
        t.requests += static_cast<double>(run.report.completed.size());
        t.cycles += static_cast<double>(run.report.totalCycles);
        for (const serve::KernelSnapshot &k : run.report.kernels) {
            ++t.kernels;
            t.kernelCycles += static_cast<double>(k.cycles);
        }
        for (const serve::CompletedRequest &r : run.report.completed) {
            if (r.isProbe)
                t.probeLatency.push_back(
                    static_cast<double>(r.latencyCycles()));
        }
    }
    return t;
}

} // namespace

WorkloadResult
runServeSaturated(const Options &opts, SpanStore *spans)
{
    WorkloadResult result;
    Setup setup;
    std::vector<double> boot_s;
    const double setup_s = medianSetupSeconds([&] {
        setup = setUp(opts.seed);
        boot_s.push_back(setup.bootS);
    });

    const Round reference = runRound(setup, true, nullptr);
    for (std::size_t k = 0; k < reference.runs.size(); ++k) {
        const Scenario &sc = setup.scenarios[k];
        const serve::ServeReport &report = reference.runs[k].report;
        checkCompleted(report.completed, setup.key, sc.spec.probeSeed,
                       sc.spec.probeLines, backgroundPlaintexts(sc, report),
                       result.checks);
    }
    result.digest = roundDigest(reference, true);
    const Totals t = totals(reference);

    Round first_traced;
    const ServedPasses passes = runServedPasses(
        opts, spans, "serve_saturated", reference,
        static_cast<std::uint64_t>(t.requests),
        [&](bool telemetry, SpanStore *round_spans) {
            return runRound(setup, telemetry, round_spans);
        },
        roundDigest, result.checks, first_traced);

    std::vector<double> estimates, ns_per_cycle;
    for (const ScenarioRun &run : first_traced.runs) {
        estimates.push_back(
            estimateNs(*setup.attacker, run.observations, opts.seed));
    }
    MetricSet &m = result.metrics;
    m.set("setup_s", setup_s, "s");
    reportServedTimes(m, passes, "serve_saturated", t.requests, t.cycles,
                      "serve.run_s", kScenarios, median(estimates));
    m.set("kernel_cycles_mean", t.kernelCycles / t.kernels, "cycles");
    m.set("probe_p99_cycles", percentile(t.probeLatency, 99.0), "cycles");

    if (!passes.traced.empty()) {
        double accesses = 0, warp = 0, prt = 0, icn = 0, xbar = 0, hits = 0,
               misses = 0, acts = 0, samples = 0, kernels = 0, rejected = 0,
               batch = 0, depth = 0, occupancy = 0;
        for (const ScenarioRun &run : first_traced.runs) {
            ns_per_cycle.insert(ns_per_cycle.end(), run.nsPerCycle.begin(),
                                run.nsPerCycle.end());
            accesses += run.coalescedAccesses;
            warp += run.warpInstructions;
            prt += run.prtStalls;
            icn += run.icnStalls;
            xbar += run.xbarPackets;
            hits += run.rowHits;
            misses += run.rowMisses;
            acts += run.activates;
            samples += static_cast<double>(run.samples);
            kernels += static_cast<double>(run.report.kernelsLaunched);
            rejected += static_cast<double>(run.report.rejected);
            batch += run.report.meanBatchRequests / kScenarios;
            depth += run.report.meanQueueDepth / kScenarios;
            occupancy += run.report.smOccupancy * 100.0 / kScenarios;
        }
        m.set("serve.boot_s", median(boot_s), "s");
        m.set("sim.interval_ns_per_cycle_p50", percentile(ns_per_cycle, 50.0),
              "ns");
        m.set("sim.interval_ns_per_cycle_p90", percentile(ns_per_cycle, 90.0),
              "ns");
        m.set("sim.host_ns_per_access", first_traced.runS * 1e9 / accesses,
              "ns");
        std::vector<std::uint64_t> probe_seeds;
        for (const Scenario &sc : setup.scenarios)
            probe_seeds.push_back(sc.spec.probeSeed);
        reportProbeCoreLayer(m, core::CoalescingPolicy::baseline(), setup.key,
                             probe_seeds, kProbes, opts.seed);
        m.set("sim.warp_instructions", warp, "count");
        m.set("sim.coalesced_accesses", accesses, "count");
        m.set("sim.prt_stall_cycles", prt, "count");
        m.set("sim.icn_stall_cycles", icn, "count");
        m.set("sim.xbar_packets", xbar, "count");
        m.set("sim.dram_row_hits", hits, "count");
        m.set("sim.dram_row_misses", misses, "count");
        m.set("sim.dram_activates", acts, "count");
        m.set("serve.kernels_launched", kernels, "count");
        m.set("serve.batch_requests_mean", batch, "requests");
        m.set("serve.queue_depth_mean", depth, "requests");
        m.set("serve.rejected", rejected, "count");
        m.set("serve.sm_occupancy", occupancy, "%");
        m.set("telemetry.samples", samples, "count");
    }
    m.set("peak_rss_mb", peakRssMb(), "MiB");
    return result;
}

} // namespace perfbench
