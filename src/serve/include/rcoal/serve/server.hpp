/**
 * @file
 * The encryption server: one serve::Replica (request queue, batcher and
 * concurrent-kernel scheduler around one GpuMachine) driven by the
 * frontend loop (frontend_loop.hpp) with a closed-loop probe client and
 * open-loop background traffic, measured end to end. The server adds
 * warm boot, the tracer sink, the rcoal_serve_* instruments and the
 * leakage auditors; the fleet runs the same loop over N replicas.
 *
 * The loop is strictly single-threaded and advances in core cycles, so
 * a scenario's result is a pure function of (GpuConfig, ServeConfig,
 * WorkloadSpec). Parallelism belongs one level up: run independent
 * scenarios on a thread pool; each is bit-reproducible on its own.
 */

#ifndef RCOAL_SERVE_SERVER_HPP
#define RCOAL_SERVE_SERVER_HPP

#include <span>
#include <vector>

#include "rcoal/serve/config.hpp"
#include "rcoal/serve/metrics.hpp"
#include "rcoal/sim/config.hpp"
#include "rcoal/sim/snapshot.hpp"

namespace rcoal::trace {
class Tracer;
} // namespace rcoal::trace

namespace rcoal::telemetry {
class LeakageAuditor;
class StageLeakageAuditor;
class TelemetrySampler;
} // namespace rcoal::telemetry

namespace rcoal::spans {
class SpanCollector;
} // namespace rcoal::spans

namespace rcoal::serve {

/**
 * Traffic offered to the server: a closed-loop probe client (the
 * attacker, whose request i draws its plaintext from
 * Rng::stream(probeSeed, i) — the same derivation the one-shot attack
 * harness uses) plus optional open-loop background tenants.
 */
struct WorkloadSpec
{
    /** Run until this many probe requests completed. */
    unsigned probeSamples = 64;

    /** Plaintext lines per probe (32 = one warp in the paper). */
    unsigned probeLines = 32;

    /** Root of the probe plaintext streams. */
    std::uint64_t probeSeed = 2024;

    /** Probe client think time between completions. */
    Cycle probeThinkCycles = 200;

    /**
     * Mean exponential interarrival gap of background requests in core
     * cycles; <= 0 offers no background load at all.
     */
    double backgroundMeanGapCycles = 0.0;

    /** Background request sizes (plaintext lines), drawn uniformly. */
    std::vector<unsigned> backgroundLineChoices = {32, 64, 96, 128};

    /** Root of the background randomness streams. */
    std::uint64_t backgroundSeed = 777;
};

/**
 * Live observability hooks for one serving run.  The sampler (whose
 * registry holds every instrument) is required; the auditor is
 * optional.  Both must outlive run(): the server registers serve-layer
 * instruments and collectors, drives the sampler from the machine's
 * event loop (skip-safe), feeds the auditor one observation per
 * completed probe, and detaches every run-local callback before
 * returning — so afterwards the registry and recorded series can be
 * rendered at leisure.
 */
struct ServeTelemetry
{
    telemetry::TelemetrySampler *sampler = nullptr;
    telemetry::LeakageAuditor *auditor = nullptr;

    /**
     * Optional per-request span tracing (rcoal::spans): every admitted
     * request gets a span id and the whole pipeline stamps stage
     * records into the collector's slab. Detached before run()
     * returns, like the other hooks.
     */
    spans::SpanCollector *spans = nullptr;

    /**
     * Optional leakage attribution: requires `spans`. Fed one
     * observation per completed *sampled* probe and stage — predicted
     * baseline accesses vs. that stage's last-round duration — so the
     * per-stage Pearson correlations localize the leak.
     */
    telemetry::StageLeakageAuditor *stageAuditor = nullptr;
};

/**
 * Runs one serving scenario to completion.
 */
class EncryptionServer
{
  public:
    /**
     * @param gpu the simulated device.
     * @param serve frontend knobs (validated against @p gpu).
     * @param key the service's secret AES key.
     */
    EncryptionServer(const sim::GpuConfig &gpu, const ServeConfig &serve,
                     std::span<const std::uint8_t> key);

    /**
     * Simulate until @p spec.probeSamples probe requests completed and
     * return everything measured along the way. fatal()s if the
     * simulation passes ServeConfig::maxSimCycles.
     *
     * An optional @p tracer is wired through the whole stack (machine
     * components plus a "serve" sink for admit/reject/batch events);
     * event recording additionally needs the RCOAL_TRACE build option.
     *
     * Optional @p telemetry attaches live metrics (see ServeTelemetry).
     * When a tracer is also attached, every sink's recorded/dropped
     * counters are re-exported through the registry so silent trace
     * loss is visible in exposition output.
     *
     * With ServeConfig::warmBootKernels > 0 the machine is booted
     * before the loop: either restored from @p warm_boot (a snapshot
     * from warmBootSnapshot() on a structurally identical GpuConfig —
     * the fast path when many scenarios share one gpu config) or, when
     * @p warm_boot is null, by re-simulating the boot launches inline
     * (the byte-identical replay path). The serve loop then runs in
     * machine time rebased to the boot point, so every reported cycle
     * count stays boot-invariant.
     */
    ServeReport run(const WorkloadSpec &spec,
                    trace::Tracer *tracer = nullptr,
                    const ServeTelemetry *telemetry = nullptr,
                    const sim::MachineSnapshot *warm_boot = nullptr) const;

    /**
     * Boot a fresh machine with ServeConfig::warmBootKernels launches
     * and snapshot it at quiescence. The snapshot restores into any
     * server whose GpuConfig differs at most in seed — build it once
     * per gpu config and share it across a scenario sweep.
     */
    sim::MachineSnapshot warmBootSnapshot() const;

  private:
    sim::GpuConfig gpuConfig;
    ServeConfig serveConfig;
    std::vector<std::uint8_t> secretKey;
};

} // namespace rcoal::serve

#endif // RCOAL_SERVE_SERVER_HPP
