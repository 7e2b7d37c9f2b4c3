/**
 * @file
 * Golden digests of the two frontends: one fully observed warm-booted
 * serve run and one cold-start autoscaled fleet run, each folded into
 * FNV-1a 64 digests of its report, its Prometheus exposition, its span
 * slab and (serve only) its trace sinks.
 *
 * The constants pin the exact bytes the serving loop produces, so any
 * change to the loop's retire/admit/batch/tick/skip order shows up here
 * even when every invariant-style test still passes. Machine-side span
 * and trace stamps compile out without RCOAL_TRACE, so every digest has
 * one value per build flavour.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/fleet/fleet.hpp"
#include "rcoal/serve/server.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"
#include "rcoal/telemetry/prometheus.hpp"
#include "rcoal/telemetry/registry.hpp"
#include "rcoal/telemetry/sampler.hpp"
#include "rcoal/trace/tracer.hpp"
#include "support/fnv.hpp"

namespace rcoal {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

using test::Fnv;

/** One run's digests, one per observable. */
struct Digests
{
    std::uint64_t report = 0;
    std::uint64_t exposition = 0;
    std::uint64_t spans = 0;
    std::uint64_t trace = 0; ///< Serve only; 0 for the fleet.
};

void
hashLatency(Fnv &h, const serve::LatencySummary &s)
{
    h.u64(s.count);
    for (const double v : {s.p50, s.p95, s.p99, s.p999, s.mean, s.max})
        h.f64(v);
}

void
hashCompleted(Fnv &h, const std::vector<serve::CompletedRequest> &done)
{
    h.u64(done.size());
    for (const serve::CompletedRequest &c : done) {
        h.u64(c.id);
        h.u64(c.isProbe ? 1 : 0);
        h.u64(static_cast<std::uint64_t>(c.clientId));
        h.u64(c.tenant);
        h.u64(c.lines);
        h.u64(c.arrival);
        h.u64(c.launched);
        h.u64(c.completed);
        h.u64(c.ciphertext.size());
        for (const aes::Block &block : c.ciphertext)
            h.bytes(block.data(), block.size());
        h.f64(c.kernelTotalTime);
        h.f64(c.kernelLastRoundTime);
        h.u64(c.kernelLastRoundAccesses);
        h.u64(c.kernelTotalAccesses);
        h.u64(c.kernelPredictedLastRoundAccesses);
        h.u64(c.batchRequests);
        h.u64(c.spanId);
        h.u64(c.spanSampled ? 1 : 0);
        for (std::size_t s = 0; s < spans::kNumSpanStages; ++s) {
            h.u64(c.stageTotals.cycles[s]);
            h.u64(c.stageTotals.lastRoundCycles[s]);
        }
    }
}

std::uint64_t
hashSlab(const spans::SpanCollector &collector)
{
    Fnv h;
    const std::vector<spans::SpanRecord> records =
        collector.slab().snapshot();
    h.u64(records.size());
    h.u64(collector.slab().totalAppended());
    h.u64(collector.slab().dropped());
    if (!records.empty()) {
        h.bytes(records.data(),
                records.size() * sizeof(spans::SpanRecord));
    }
    return h.value();
}

std::uint64_t
hashText(const std::string &text)
{
    Fnv h;
    h.str(text);
    return h.value();
}

std::vector<std::string>
stageNames()
{
    std::vector<std::string> names;
    for (std::size_t s = 0; s < spans::kNumSpanStages; ++s)
        names.emplace_back(
            spans::spanStageName(static_cast<spans::SpanStage>(s)));
    return names;
}

Digests
serveGoldenRun()
{
    sim::GpuConfig gpu = sim::GpuConfig::paperBaseline();
    gpu.numSms = 4;
    gpu.seed = 42;
    gpu.policy = core::CoalescingPolicy::rss(4, true);

    serve::ServeConfig cfg;
    cfg.queueCapacity = 3; // Small enough that some arrivals bounce.
    cfg.maxBatchRequests = 2;
    cfg.batchTimeoutCycles = 2000;
    cfg.smsPerKernel = 2;
    cfg.warmBootKernels = 2;

    serve::WorkloadSpec spec;
    spec.probeSamples = 6;
    spec.probeLines = 32;
    spec.probeSeed = 7;
    spec.probeThinkCycles = 300;
    spec.backgroundMeanGapCycles = 1500.0;
    spec.backgroundLineChoices = {32, 64};
    spec.backgroundSeed = 1234;

    telemetry::MetricRegistry registry;
    telemetry::TelemetrySampler sampler(registry,
                                        /*interval_cycles=*/1000);
    telemetry::LeakageAuditor auditor(registry, {});
    telemetry::StageLeakageAuditor stage_auditor(registry, {},
                                                 stageNames());
    spans::SpanCollector collector;
    trace::Tracer tracer(/*capacity_per_sink=*/256);
    serve::ServeTelemetry hooks;
    hooks.sampler = &sampler;
    hooks.auditor = &auditor;
    hooks.spans = &collector;
    hooks.stageAuditor = &stage_auditor;

    const serve::EncryptionServer server(gpu, cfg, kKey);
    const serve::ServeReport report = server.run(spec, &tracer, &hooks);

    Digests out;
    Fnv h;
    hashCompleted(h, report.completed);
    h.u64(report.kernels.size());
    for (const serve::KernelSnapshot &k : report.kernels) {
        for (const std::uint64_t v :
             {k.launchId, std::uint64_t{k.gang},
              std::uint64_t{k.batchRequests}, k.launchedAt, k.finishedAt,
              k.cycles, k.coalescedAccesses, k.lastRoundAccesses,
              k.predictedLastRoundAccesses, k.prtStallCycles,
              k.icnStallCycles})
            h.u64(v);
    }
    hashLatency(h, report.probeLatency);
    hashLatency(h, report.allLatency);
    h.u64(report.totalCycles);
    h.f64(report.throughputReqPerSec);
    h.f64(report.meanQueueDepth);
    h.u64(report.maxQueueDepth);
    h.f64(report.meanBusySms);
    h.u64(report.maxBusySms);
    h.f64(report.smOccupancy);
    h.u64(report.admitted);
    h.u64(report.rejected);
    h.u64(report.kernelsLaunched);
    h.f64(report.meanBatchRequests);
    out.report = h.value();

    out.exposition = hashText(telemetry::renderPrometheus(registry) +
                              sampler.seriesJson());
    out.spans = hashSlab(collector);

    Fnv t;
    t.u64(tracer.sinks().size());
    for (const auto &sink : tracer.sinks()) {
        t.str(sink->name());
        t.u64(static_cast<std::uint64_t>(sink->domain()));
        t.u64(sink->totalRecorded());
        t.u64(sink->dropped());
        for (const trace::TraceEvent &e : sink->snapshot()) {
            t.u64(e.cycle);
            t.u64(e.a);
            t.u64(e.b);
            t.u64(e.c);
            t.u64(static_cast<std::uint64_t>(e.kind));
            t.u64(e.component);
        }
    }
    out.trace = t.value();
    return out;
}

Digests
fleetGoldenRun()
{
    sim::GpuConfig gpu = sim::GpuConfig::paperBaseline();
    gpu.numSms = 4;
    gpu.seed = 42;
    gpu.policy = core::CoalescingPolicy::rss(4, true);

    serve::ServeConfig serve_cfg;
    serve_cfg.queueCapacity = 8;
    serve_cfg.maxBatchRequests = 2;
    serve_cfg.smsPerKernel = 2;

    fleet::FleetConfig cfg;
    cfg.numReplicas = 3;
    cfg.routing = fleet::RoutingPolicy::JoinShortestQueue;
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.evalIntervalCycles = 10'000;
    cfg.autoscaler.queueDepthSlo = 2.0;
    cfg.autoscaler.scaleDownQueueDepth = 0.25;
    cfg.autoscaler.cooldownCycles = 0;
    cfg.autoscaler.minReplicas = 1;

    fleet::FleetWorkloadSpec spec;
    spec.probeSamples = 10;
    spec.probeLines = 32;
    spec.probeSeed = 7;
    spec.probeThinkCycles = 100;
    spec.tenants.tenants = 3;
    spec.tenants.baseMeanGapCycles = 2500.0;
    // A short diurnal swing: the fleet scales up, then drains one
    // replica back to idle before the run ends.
    spec.tenants.diurnalAmplitude = 0.95;
    spec.tenants.diurnalPeriodCycles = 40'000;
    spec.tenants.burstProbability = 0.2;
    spec.tenants.burstLength = 3;
    spec.tenants.lineChoices = {32};
    spec.tenants.seed = 99;

    telemetry::MetricRegistry registry;
    telemetry::TelemetrySampler sampler(registry,
                                        /*interval_cycles=*/2000);
    telemetry::FleetLeakageAuditor auditor(registry, {}, cfg.numReplicas);
    spans::SpanCollector collector;
    fleet::FleetTelemetry hooks;
    hooks.sampler = &sampler;
    hooks.auditor = &auditor;
    hooks.spans = &collector;

    const fleet::FleetServer server(gpu, serve_cfg, cfg, kKey);
    const fleet::FleetReport report = server.run(spec, &hooks);

    Digests out;
    Fnv h;
    hashCompleted(h, report.completed);
    h.u64(report.completedReplica.size());
    for (const unsigned r : report.completedReplica)
        h.u64(r);
    h.u64(report.replicas.size());
    for (const fleet::ReplicaReport &rr : report.replicas) {
        h.u64(rr.replica);
        h.str(rr.finalState);
        h.u64(rr.completed);
        h.u64(rr.probeCompleted);
        h.u64(rr.admitted);
        h.u64(rr.rejected);
        h.u64(rr.kernelsLaunched);
        hashLatency(h, rr.allLatency);
        hashLatency(h, rr.probeLatency);
        h.f64(rr.meanQueueDepth);
        h.u64(rr.maxQueueDepth);
        h.u64(rr.activeCycles);
    }
    hashLatency(h, report.allLatency);
    hashLatency(h, report.probeLatency);
    h.u64(report.totalCycles);
    h.f64(report.throughputReqPerSec);
    h.u64(report.admitted);
    h.u64(report.rejected);
    h.u64(report.autoscalerActions.size());
    for (const fleet::AutoscalerAction &a : report.autoscalerActions) {
        h.u64(a.cycle);
        h.u64(a.fromReplicas);
        h.u64(a.toReplicas);
        h.f64(a.meanQueueDepth);
    }
    h.f64(report.meanActiveReplicas);
    out.report = h.value();

    out.exposition = hashText(telemetry::renderPrometheus(registry) +
                              sampler.seriesJson());
    out.spans = hashSlab(collector);
    return out;
}

void
expectDigests(const Digests &got, const Digests &want)
{
    EXPECT_EQ(got.report, want.report)
        << std::hex << "report digest 0x" << got.report;
    EXPECT_EQ(got.exposition, want.exposition)
        << std::hex << "exposition digest 0x" << got.exposition;
    EXPECT_EQ(got.spans, want.spans)
        << std::hex << "span slab digest 0x" << got.spans;
    EXPECT_EQ(got.trace, want.trace)
        << std::hex << "trace sink digest 0x" << got.trace;
}

#if RCOAL_TRACE_ENABLED
constexpr Digests kServeGolden{0xc767ad1195578f8bull, 0x87a3ae52d4949d91ull,
                               0x1ac427d258e0587bull, 0x93d8ab3481ab6e38ull};
constexpr Digests kFleetGolden{0x9bf3e15f5777e5efull, 0xc3ab1a4155515625ull,
                               0x9e11394fd782933eull, 0x0ull};
#else
constexpr Digests kServeGolden{0x9ddeb2cda1642e2eull, 0xcefb324321fc30faull,
                               0xa86414e6e8864116ull, 0xd8a102793f41a5afull};
constexpr Digests kFleetGolden{0xae1d6d1605febab0ull, 0xc3ab1a4155515625ull,
                               0x8cffdc4c29e05006ull, 0x0ull};
#endif

TEST(FrontendGolden, WarmBootedServeRunDigests)
{
    expectDigests(serveGoldenRun(), kServeGolden);
}

TEST(FrontendGolden, AutoscaledFleetRunDigests)
{
    expectDigests(fleetGoldenRun(), kFleetGolden);
}

} // namespace
} // namespace rcoal
