/**
 * @file
 * Shared command-line handling for the bench drivers.
 *
 * Every driver accepts the same small flag set:
 *
 *   --samples N   sample count (also accepted as the first positional
 *                 argument, the historical form)
 *   --seed S      victim GPU seed (default 42, the fixed seed every
 *                 figure has always used)
 *   --threads T   engine worker count (sets RCOAL_THREADS; must come
 *                 before the pool spins up, which parseBenchArgs
 *                 guarantees when called first thing in main())
 *   --trace FILE  write a Chrome/Perfetto trace of one representative
 *                 run to FILE (drivers that support it; event recording
 *                 needs the RCOAL_TRACE build option)
 *   --telemetry-out DIR
 *                 write one Prometheus text-exposition snapshot per
 *                 scenario into DIR (drivers that support live
 *                 telemetry; DIR must already exist)
 *   --telemetry-interval N
 *                 cycles between telemetry samples (default 5000)
 *   --no-cycle-skipping
 *                 force the all-awake stepping reference (disables
 *                 GpuConfig::cycleSkipping process-wide; equivalent to
 *                 RCOAL_CYCLE_SKIPPING=0). Output is identical either
 *                 way — this only trades simulator throughput.
 *   --dram-backend NAME
 *                 DRAM device personality: gddr5 (default), gddr6 or
 *                 hbm2 (see rcoal::mem::DramBackend). Drivers that
 *                 sweep backends treat the flag as a filter.
 *   --warmup N    shared-prefix warm-up launches per sweep cell
 *                 (default: driver-specific). N > 0 snapshots a warmed
 *                 machine once and forks it per trial
 *                 (EncryptionService::collectSamplesShared); 0 keeps
 *                 the historical cold-start collection.
 *   --collect-mode fork|replay
 *                 how the shared prefix is reused: fork restores each
 *                 trial from the snapshot (fast path, default); replay
 *                 re-simulates the warm-up per trial (byte-identical
 *                 verification path). Ignored when warmup is 0.
 *   --span-sample-rate N
 *                 keep every Nth request span (deterministic: a span is
 *                 retained iff spanId %% N == 0, no RNG involved), so a
 *                 sampled run's retained spans are byte-identical to the
 *                 same subset of a full run. Default 1 = trace every
 *                 request. Drivers with span tracing only.
 *   --help        usage
 *
 * Parsing also records the driver's name (basename of argv[0]) so the
 * engine report can key its entry per driver instead of clobbering the
 * whole file.
 */

#ifndef RCOAL_BENCH_CLI_HPP
#define RCOAL_BENCH_CLI_HPP

#include <cstdint>
#include <string>

#include "rcoal/attack/encryption_service.hpp"

namespace rcoal::bench {

/** Parsed common options. */
struct CliOptions
{
    std::string driver; ///< basename(argv[0]).
    unsigned samples = 0;
    std::uint64_t seed = 42;
    unsigned threads = 0; ///< 0 = RCOAL_THREADS / hardware default.
    std::string tracePath; ///< --trace FILE; empty = no trace export.
    std::string telemetryDir; ///< --telemetry-out DIR; empty = off.
    std::uint64_t telemetryInterval = 5000; ///< --telemetry-interval.
    /**
     * --dram-backend NAME, validated at parse time; empty when the flag
     * was not given (drivers fall back to the config default, and the
     * backend-sweep drivers run every personality).
     */
    std::string dramBackend;
    /** --warmup N; seeded from parseBenchArgs' default_warmup. */
    unsigned warmup = 0;
    /** --collect-mode; how warm-prefix trials reuse the prefix. */
    attack::CollectMode collectMode = attack::CollectMode::Fork;

    /**
     * --span-sample-rate N: deterministic span sampling modulus for
     * drivers with span tracing (spans::SpanCollector::Config). 1 =
     * every request traced.
     */
    unsigned spanSampleRate = 1;
};

/**
 * Parse the shared flags; fatal()s on malformed or unknown arguments,
 * prints usage and exits 0 on --help. @p default_samples seeds the
 * samples field when neither --samples nor a positional count is given;
 * @p default_warmup likewise seeds warmup when --warmup is absent (the
 * sweep drivers default to a small shared prefix, one-shot drivers to
 * the historical cold start).
 *
 * Side effects: exports --threads into RCOAL_THREADS (before the lazy
 * global pool is created) and records driver/seed/warmup/collect-mode
 * for benchSeed()/benchWarmup()/benchCollectMode() and the engine
 * report.
 */
CliOptions parseBenchArgs(int argc, char **argv,
                          unsigned default_samples,
                          unsigned default_warmup = 0);

/**
 * The victim seed of the current run: --seed if given, else 42.
 * evaluatePolicy()/collectObservations() default to it.
 */
std::uint64_t benchSeed();

/** Warm-up launches recorded by parseBenchArgs(); 0 before that. */
unsigned benchWarmup();

/** Collect mode recorded by parseBenchArgs(); Fork before that. */
attack::CollectMode benchCollectMode();

/** Driver name recorded by parseBenchArgs(); "bench" before that. */
const std::string &benchDriverName();

} // namespace rcoal::bench

#endif // RCOAL_BENCH_CLI_HPP
