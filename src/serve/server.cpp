/**
 * @file
 * EncryptionServer implementation.
 */

#include "rcoal/serve/server.hpp"

#include <array>
#include <memory>
#include <tuple>

#include "rcoal/common/logging.hpp"
#include "rcoal/serve/frontend_loop.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"
#include "rcoal/telemetry/sampler.hpp"
#include "rcoal/trace/tracer.hpp"
#include "rcoal/workloads/aes_kernel.hpp"

namespace rcoal::serve {

namespace {

/** Background requests get ids far above any probe id. */
constexpr std::uint64_t kBackgroundFirstId = 1'000'000'000;

/** Stream tag separating warm-boot plaintexts from all serve traffic. */
constexpr std::uint64_t kBootPlaintextTag = 0xb007'74b1'e5ee'd001ull;

/** Plaintext lines per warm-boot kernel (one full warp). */
constexpr unsigned kBootLines = 32;

/**
 * Retire ServeConfig::warmBootKernels AES launches on @p machine. All
 * randomness (launch RNG streams 1..N under warmBootSeed, plaintexts
 * from a boot-tagged stream) derives from warmBootSeed alone, so the
 * booted state is independent of the scenario GPU seed — the caller
 * reseeds back afterwards. Leaves the machine with cfg.seed ==
 * warmBootSeed, exactly like restoring a warmBootSnapshot().
 */
void
runBootLaunches(sim::GpuMachine &machine,
                std::span<const std::uint8_t> key,
                const ServeConfig &serve)
{
    machine.reseed(serve.warmBootSeed);
    const std::uint64_t plaintext_root =
        Rng::deriveSeed(serve.warmBootSeed, kBootPlaintextTag);
    const sim::SmRange all{0, machine.config().numSms};
    for (unsigned w = 0; w < serve.warmBootKernels; ++w) {
        Rng rng = Rng::stream(plaintext_root, w);
        const auto plaintext = workloads::randomPlaintext(kBootLines, rng);
        workloads::AesGpuKernel kernel(plaintext, key,
                                       machine.config().warpSize);
        const auto id = machine.launchStream(kernel, all, w + 1);
        machine.runUntilDone(id);
        machine.take(id);
    }
}

} // namespace

EncryptionServer::EncryptionServer(const sim::GpuConfig &gpu,
                                   const ServeConfig &serve,
                                   std::span<const std::uint8_t> key)
    : gpuConfig(gpu),
      serveConfig(serve),
      secretKey(key.begin(), key.end())
{
    serveConfig.validate(gpuConfig);
}

sim::MachineSnapshot
EncryptionServer::warmBootSnapshot() const
{
    sim::GpuMachine machine(gpuConfig);
    runBootLaunches(machine, secretKey, serveConfig);
    return machine.snapshot();
}

ServeReport
EncryptionServer::run(const WorkloadSpec &spec,
                      trace::Tracer *tracer,
                      const ServeTelemetry *telemetry,
                      const sim::MachineSnapshot *warm_boot) const
{
    RCOAL_ASSERT(spec.probeSamples > 0, "workload without probes");
    RCOAL_ASSERT(warm_boot == nullptr || serveConfig.warmBootKernels > 0,
                 "warm-boot snapshot passed with warmBootKernels == 0");

    // One replica on the scenario seed as given (a fleet derives one
    // seed per replica; a solo server is not reseeded).
    const std::array<std::unique_ptr<Replica>, 1> replicas = {
        std::make_unique<Replica>(0, gpuConfig, serveConfig, secretKey)};
    Replica &replica = *replicas.front();
    const RequestQueue &queue = replica.queue();
    KernelScheduler &scheduler = replica.scheduler();
    sim::GpuMachine &machine = replica.gpu();
    if (serveConfig.warmBootKernels > 0) {
        // Boot before any tracer/telemetry attaches: the boot prefix is
        // shared machinery, not part of the measured scenario. restore()
        // adopts the snapshot's seed (warmBootSeed) just like the inline
        // replay, so reseeding back to the scenario seed makes the two
        // paths byte-identical from here on.
        if (warm_boot != nullptr)
            machine.restore(*warm_boot);
        else
            runBootLaunches(machine, secretKey, serveConfig);
        machine.reseed(gpuConfig.seed);
    }
    if (tracer != nullptr) {
        machine.setTracer(tracer);
        scheduler.setTraceSink(
            &tracer->sink("serve", trace::ClockDomain::Core));
    }
    // Span tracing attaches after the warm boot for the same reason
    // the tracer does: the boot prefix is shared machinery. The
    // collector then rides the machine through snapshot()/restore().
    spans::SpanCollector *span_collector =
        telemetry != nullptr ? telemetry->spans : nullptr;
    telemetry::StageLeakageAuditor *stage_auditor =
        telemetry != nullptr ? telemetry->stageAuditor : nullptr;
    RCOAL_ASSERT(stage_auditor == nullptr || span_collector != nullptr,
                 "stage auditor requires a span collector");
    if (span_collector != nullptr)
        scheduler.setSpanCollector(span_collector, /*span_namespace=*/0);
    ClosedLoopGenerator probes(/*clients=*/1, spec.probeThinkCycles,
                               spec.probeLines, spec.probeSeed,
                               /*first_id=*/0, /*probes=*/true);
    OpenLoopGenerator background(spec.backgroundMeanGapCycles,
                                 spec.backgroundLineChoices,
                                 spec.backgroundSeed,
                                 kBackgroundFirstId);

    ServeReport report;
    const ReplicaTotals &totals = replica.totals();
    // Histograms are fed per launch / completion; the other serve
    // instruments are refreshed by a sampler collector. Null when
    // telemetry is off.
    telemetry::LogHistogram *batch_requests = nullptr;
    telemetry::LogHistogram *latency_all = nullptr;
    telemetry::LogHistogram *latency_probe = nullptr;
    telemetry::TelemetrySampler *sampler =
        telemetry != nullptr ? telemetry->sampler : nullptr;
    telemetry::LeakageAuditor *auditor =
        telemetry != nullptr ? telemetry->auditor : nullptr;
    if (sampler != nullptr) {
        telemetry::MetricRegistry &reg = sampler->registry();
        // Machine instruments first: setTelemetry also re-anchors the
        // sampler and folds its bound into nextEventCycle(), so the
        // machine (not the loop) drives the sampler.
        machine.setTelemetry(sampler);
        telemetry::Gauge *queue_depth =
            &reg.gauge("rcoal_serve_queue_depth",
                       "Requests waiting in the admission queue");
        telemetry::Gauge *busy_gangs =
            &reg.gauge("rcoal_serve_busy_gangs",
                       "SM gangs currently running a batch kernel");
        telemetry::Counter *admitted =
            &reg.counter("rcoal_serve_admitted_total",
                         "Requests accepted by admission control");
        telemetry::Counter *rejected =
            &reg.counter("rcoal_serve_rejected_total",
                         "Requests rejected by admission control");
        telemetry::Counter *completed =
            &reg.counter("rcoal_serve_completed_total",
                         "Requests completed end to end");
        telemetry::Counter *probe_completed =
            &reg.counter("rcoal_serve_probe_completed_total",
                         "Probe (attacker) requests completed");
        telemetry::Counter *kernels_launched =
            &reg.counter("rcoal_serve_kernels_launched_total",
                         "Batch kernels launched");
        batch_requests =
            &reg.histogram("rcoal_serve_batch_requests",
                           "Requests per launched batch kernel", {},
                           /*value_bits=*/16);
        latency_all = &reg.histogram(
            "rcoal_serve_request_latency_cycles",
            "End-to-end request latency in core cycles",
            {{"scope", "all"}});
        latency_probe = &reg.histogram(
            "rcoal_serve_request_latency_cycles",
            "End-to-end request latency in core cycles",
            {{"scope", "probe"}});
        // (sink, recorded counter, dropped counter) triples.
        std::vector<std::tuple<const trace::TraceSink *,
                               telemetry::Counter *, telemetry::Counter *>>
            sinks;
        if (tracer != nullptr) {
            for (const auto &sink : tracer->sinks()) {
                const telemetry::MetricRegistry::Labels sink_labels = {
                    {"sink", std::string(sink->name())}};
                sinks.emplace_back(
                    sink.get(),
                    &reg.counter("rcoal_trace_recorded_total",
                                 "Trace events recorded, per sink",
                                 sink_labels),
                    &reg.counter("rcoal_trace_dropped_total",
                                 "Trace events dropped (ring full), "
                                 "per sink",
                                 sink_labels));
            }
        }
        sampler->addCollector([=, &queue, &scheduler, &totals,
                               sinks = std::move(sinks)](Cycle) {
            queue_depth->set(static_cast<double>(queue.size()));
            busy_gangs->set(static_cast<double>(scheduler.busyGangs()));
            admitted->set(queue.admitted());
            rejected->set(queue.rejected());
            completed->set(totals.allLatency.count());
            probe_completed->set(totals.probeLatency.count());
            kernels_launched->set(scheduler.kernelsLaunched());
            for (const auto &[sink, recorded, dropped] : sinks) {
                recorded->set(sink->totalRecorded());
                dropped->set(sink->dropped());
            }
        });
        if (span_collector != nullptr) {
            telemetry::Counter *span_recorded = &reg.counter(
                "rcoal_span_records_total",
                "Span stage records appended to the slab");
            telemetry::Counter *span_dropped = &reg.counter(
                "rcoal_span_dropped_total",
                "Span stage records lost to slab overwrite");
            telemetry::Gauge *spans_live = &reg.gauge(
                "rcoal_spans_live", "Spans open (admitted, not retired)");
            sampler->addCollector([span_collector, span_recorded,
                                   span_dropped, spans_live](Cycle) {
                span_recorded->set(static_cast<double>(
                    span_collector->slab().totalAppended()));
                span_dropped->set(static_cast<double>(
                    span_collector->slab().dropped()));
                spans_live->set(static_cast<double>(
                    span_collector->liveSpans()));
            });
        }
        sampler->track("serve_queue_depth", [&queue] {
            return static_cast<double>(queue.size());
        });
        sampler->track("busy_sms", [&scheduler] {
            return static_cast<double>(scheduler.busySms());
        });
        if (auditor != nullptr) {
            sampler->track("leakage_correlation", [auditor] {
                return auditor->correlation();
            });
        }
    }

    // The loop runs in machine time rebased to the boot point; every
    // reported cycle count subtracts `start`, so it is boot-invariant.
    const Cycle start = machine.now();
    probes.startAt(start);
    background.startAt(start);
    const auto on_completion = [&](const Replica &,
                                   CompletedRequest &&done, Cycle) {
        if (latency_all != nullptr)
            latency_all->observe(done.latencyCycles());
        if (done.isProbe) {
            if (latency_probe != nullptr)
                latency_probe->observe(done.latencyCycles());
            const auto x =
                static_cast<double>(done.kernelPredictedLastRoundAccesses);
            if (auditor != nullptr)
                auditor->observe(x, done.kernelLastRoundTime);
            if (stage_auditor != nullptr && done.spanSampled) {
                // Per-stage attribution: same X series as the end-to-end
                // auditor, Y = this stage's last-round cycle slice.
                // Pearson is scale-invariant, so the DRAM stage's
                // memory-clock slice needs no conversion.
                for (std::size_t st = 0; st < spans::kNumSpanStages; ++st) {
                    stage_auditor->observe(
                        st, x,
                        static_cast<double>(
                            done.stageTotals.lastRoundCycles[st]));
                }
            }
        }
        report.completed.push_back(std::move(done));
    };
    const Cycle now = runFrontendLoop({
        .replicas = replicas,
        .probes = &probes,
        .background = &background,
        .probeSamples = spec.probeSamples,
        .maxSimCycles = serveConfig.maxSimCycles,
        .spans = span_collector,
        .route = [&replica](Request &, Cycle) -> Replica & {
            return replica;
        },
        .onLaunch =
            [batch_requests](const std::vector<Request> &batch) {
                if (batch_requests != nullptr)
                    batch_requests->observe(batch.size());
            },
        .onCompletion = on_completion,
    });

    report.totalCycles = now - start;
    report.kernels = scheduler.takeKernelSnapshots();
    report.admitted = queue.admitted();
    report.rejected = queue.rejected();
    report.kernelsLaunched = scheduler.kernelsLaunched();
    report.meanBatchRequests =
        scheduler.kernelsLaunched() == 0
            ? 0.0
            : static_cast<double>(scheduler.batchedRequests()) /
                  static_cast<double>(scheduler.kernelsLaunched());
    report.maxQueueDepth = totals.maxQueueDepth;
    report.maxBusySms = totals.maxBusySms;
    if (now > start) {
        const auto elapsed = static_cast<double>(now - start);
        report.meanQueueDepth =
            static_cast<double>(totals.queueDepthSum) / elapsed;
        report.meanBusySms =
            static_cast<double>(totals.busySmSum) / elapsed;
        report.smOccupancy =
            report.meanBusySms / static_cast<double>(gpuConfig.numSms);
        const double seconds = elapsed / (gpuConfig.coreClockMhz * 1e6);
        report.throughputReqPerSec =
            static_cast<double>(report.completed.size()) / seconds;
    }

    report.allLatency = totals.allLatency.summary();
    report.probeLatency = totals.probeLatency.summary();

    if (sampler != nullptr) {
        // Final refresh so the exposition snapshot reflects the end
        // state, then drop every run-local callback: the sampled
        // objects die with this frame, the registry and series do not.
        sampler->collect(now);
        sampler->detachSources();
        machine.setTelemetry(nullptr);
    }
    if (span_collector != nullptr)
        scheduler.setSpanCollector(nullptr);
    return report;
}

} // namespace rcoal::serve
