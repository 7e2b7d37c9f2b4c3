/**
 * @file
 * Shared harness code for the per-figure/table bench binaries.
 *
 * Every bench evaluates one or more (defense policy, attack) pairs on
 * the simulated GPU AES service and prints the same rows/series the
 * paper reports. The harness fixes seeds so output is reproducible.
 */

#ifndef RCOAL_BENCH_SUPPORT_HPP
#define RCOAL_BENCH_SUPPORT_HPP

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "rcoal/attack/correlation_attack.hpp"
#include "rcoal/common/stats.hpp"
#include "rcoal/common/table_printer.hpp"
#include "rcoal/common/thread_pool.hpp"
#include "rcoal/telemetry/registry.hpp"

namespace rcoal::bench {

/**
 * The experiment engine's pool, shared by every bench driver. Sized by
 * RCOAL_THREADS (default: hardware concurrency). Thanks to the
 * counter-based RNG streams, all bench output is identical for every
 * worker count.
 */
ThreadPool &benchPool();

/**
 * Wall-clock / throughput bookkeeping for the engine, grouped into
 * named phases ("collect", "attack", ...). Per-call wall times
 * accumulate into one RunningStats per phase (and merge() lets callers
 * fold in their own accumulators); writeEngineReport() serializes the
 * lot so the perf trajectory is tracked across PRs.
 */
class EngineReport
{
  public:
    /** Record one timed call of @p phase covering @p items work items. */
    void record(const std::string &phase, std::uint64_t items,
                double wall_seconds);

    /** Fold an externally accumulated timing series into @p phase. */
    void merge(const std::string &phase, std::uint64_t items,
               const RunningStats &wall_seconds);

    /**
     * Attach a driver-specific counter to the report entry. @p value is
     * a JSON value literal ("12", "3.5", "\"text\"", or a nested
     * object); it lands under "extras" in this driver's entry. Setting
     * an existing key overwrites it. Per-kernel counter roll-ups from
     * the serve drivers arrive through here.
     */
    void setExtra(const std::string &key, const std::string &value);

    /**
     * Write the machine-readable report (BENCH_engine.json, schema
     * rcoal-engine-report-v2): engine sizing, per-phase wall-clock
     * stats and throughput, and worker-balance summaries.
     *
     * The file keys one entry per driver under "drivers" and is merged
     * on write: this run replaces only its own @p driver entry, so
     * running fig05 no longer clobbers fig08's record.
     */
    void writeJson(const std::string &path,
                   const std::string &driver) const;

  private:
    struct Phase
    {
        std::string name;
        std::uint64_t items = 0;
        RunningStats wallSeconds;
    };

    Phase &phaseFor(const std::string &name);

    std::vector<Phase> phases; // small; insertion order = report order
    /// Driver-specific key -> JSON value literal, insertion-ordered.
    std::vector<std::pair<std::string, std::string>> extras;
};

/** The process-wide report every driver appends to. */
EngineReport &engineReport();

/**
 * Emit this driver's entry into BENCH_engine.json (or @p path) and
 * print a one-line summary. Call at the end of a driver's main(); the
 * entry is keyed by benchDriverName() (recorded by parseBenchArgs()).
 */
void writeEngineReport(const std::string &path = "BENCH_engine.json");

/** The fixed AES-128 key every experiment's victim uses. */
const std::array<std::uint8_t, 16> &victimKey();

/** The subwarp counts the paper sweeps. */
const std::vector<unsigned> &paperSubwarpCounts();

/** Default sample count (the paper demonstrates with 100 plaintexts). */
inline constexpr unsigned kDefaultSamples = 100;

/**
 * Default warm-up prefix for the sweep drivers: two retired AES
 * launches settle the DRAM/clock phase and (when the hierarchy is on)
 * the caches before the measured launch, and make the snapshot-fork
 * fast path the drivers' default.
 */
inline constexpr unsigned kDefaultWarmup = 2;

/** parseBenchArgs() with the standard default sample count. */
inline CliOptions
parseBenchArgs(int argc, char **argv)
{
    return parseBenchArgs(argc, argv, kDefaultSamples);
}

/**
 * parseBenchArgs() for the sweep drivers (ablation_*, fig08/13/14,
 * serve_attack_under_load): same flags, but collection defaults to a
 * kDefaultWarmup-launch shared prefix forked per trial. --warmup 0
 * restores the historical cold-start behaviour.
 */
inline CliOptions
parseBenchArgsWarm(int argc, char **argv,
                   unsigned default_samples = kDefaultSamples)
{
    return parseBenchArgs(argc, argv, default_samples, kDefaultWarmup);
}

/** Aggregate result of evaluating one policy under its attack. */
struct PolicyEvaluation
{
    core::CoalescingPolicy policy;
    unsigned samples = 0;
    unsigned lines = 0;

    // Victim-side aggregates (mean per plaintext).
    double meanTotalTime = 0.0;
    double meanLastRoundTime = 0.0;
    double meanTotalAccesses = 0.0;
    double meanLastRoundAccesses = 0.0;

    // Attack-side results (corresponding attack).
    attack::KeyAttackResult attackResult;

    /** Average correct-guess correlation (Fig. 7b / 15 / 18a metric). */
    double
    avgCorrelation() const
    {
        return attackResult.avgCorrectCorrelation;
    }
};

/**
 * Run the full pipeline for one policy: collect @p samples encryptions
 * of @p lines-line plaintexts under @p policy, then run the
 * corresponding attack (the attacker assumes the same policy,
 * Section IV-E) against @p measurement.
 *
 * Both phases run on benchPool() with per-trial RNG streams and are
 * timed into engineReport(); output is independent of RCOAL_THREADS.
 */
PolicyEvaluation evaluatePolicy(
    const core::CoalescingPolicy &policy, unsigned samples,
    unsigned lines = 32,
    attack::MeasurementVector measurement =
        attack::MeasurementVector::LastRoundTime,
    std::uint64_t victim_seed = benchSeed(),
    std::uint64_t plaintext_seed = 7);

/** Collect observations only (no attack), on benchPool(). */
std::vector<attack::EncryptionObservation>
collectObservations(const core::CoalescingPolicy &policy,
                    unsigned samples, unsigned lines = 32,
                    std::uint64_t victim_seed = benchSeed(),
                    std::uint64_t plaintext_seed = 7);

/**
 * Collect on an explicit GPU config (the hierarchy/backend sweeps tune
 * more than the policy). Honors --warmup/--collect-mode exactly like
 * collectObservations(): warmup > 0 forks a warmed snapshot per trial,
 * times the run into the "collect" phase, and (in fork mode)
 * re-simulates a bounded trial prefix from cold machines into
 * "collect_replay", fatal()ing on any byte divergence.
 */
std::vector<attack::EncryptionObservation>
collectObservationsFor(const sim::GpuConfig &config, unsigned samples,
                       unsigned lines = 32,
                       std::uint64_t plaintext_seed = 7);

/**
 * The four defense families of the paper's evaluation, at subwarp count
 * @p m: FSS, FSS+RTS, RSS, RSS+RTS.
 */
std::vector<core::CoalescingPolicy> defenseFamilies(unsigned m);

/** Short column label for a policy family ("FSS+RTS" etc). */
std::string familyName(const core::CoalescingPolicy &policy);

/** Print the per-guess correlation summary for one key byte. */
void printByteScatterSummary(const attack::ByteAttackResult &byte_result,
                             std::uint8_t true_byte);

/**
 * Shared driver for the Fig. 12/13/14 scatter figures: run the
 * corresponding attack against the defense produced by @p policy_for_m
 * for M in {2, 4, 8, 16} and print the key-byte-0 scatter summaries
 * plus the roll-up table.
 */
void runScatterFigure(
    const std::string &title,
    const std::function<core::CoalescingPolicy(unsigned)> &policy_for_m,
    unsigned samples);

/** Lowercased copy, for snapshot file names. */
std::string lowered(const char *s);

/**
 * Render @p registry as a Prometheus exposition, fatal if it fails
 * lint, and write it to @p path.
 */
void writePromSnapshot(const std::string &path,
                       const telemetry::MetricRegistry &registry);

} // namespace rcoal::bench

#endif // RCOAL_BENCH_SUPPORT_HPP
