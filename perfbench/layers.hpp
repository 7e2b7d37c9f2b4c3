/**
 * @file
 * Workload helpers that touch the rcoal APIs: seed derivation, output
 * checks and digests, and the benchmark-side layer probes (core replay,
 * attacker estimate cost) shared by the three workloads.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <array>
#include <span>
#include <string_view>
#include <unordered_map>

#include "perfbench.hpp"
#include "rcoal/aes/aes.hpp"
#include "rcoal/attack/correlation_attack.hpp"
#include "rcoal/core/coalescer.hpp"
#include "rcoal/core/partitioner.hpp"
#include "rcoal/serve/metrics.hpp"
#include "rcoal/sim/kernel.hpp"
#include "rcoal/telemetry/sampler.hpp"

namespace perfbench {

/**
 * The input streams every workload derives from the --seed root. The
 * program only ever sees the values derived from them.
 */
enum class Stream : std::uint64_t
{
    Key = 1,
    Gpu,
    Plaintext,
    Background,
    Tenants,
    Attacker,
    CoreReplay,
};

/** Seed of stream @p s below root @p seed. */
std::uint64_t streamSeed(std::uint64_t seed, Stream s);

/** Root of scenario @p k of a multi-scenario round below @p seed. */
std::uint64_t scenarioSeed(std::uint64_t seed, unsigned k);

/** The victim's AES-128 key for root @p seed. */
std::array<std::uint8_t, 16> victimKey(std::uint64_t seed);

/** Attacker that assumes @p policy and measures the last-round time. */
rcoal::attack::AttackConfig attackConfig(
    const rcoal::core::CoalescingPolicy &policy, std::uint64_t seed);

/** Check every ciphertext line against the rcoal::aes reference. */
void checkCiphertexts(const rcoal::aes::Aes &reference,
                      std::span<const rcoal::aes::Block> plaintext,
                      std::span<const rcoal::aes::Block> ciphertext,
                      Checks &checks, const std::string &what);

/** True when two observation lists are byte-identical. */
bool sameObservations(
    std::span<const rcoal::attack::EncryptionObservation> a,
    std::span<const rcoal::attack::EncryptionObservation> b);

void digestObservations(
    Digest &digest,
    std::span<const rcoal::attack::EncryptionObservation> observations);
void digestKeyAttack(Digest &digest,
                     const rcoal::attack::KeyAttackResult &result);
void digestLatency(Digest &digest, const rcoal::serve::LatencySummary &s);

/**
 * Host cost of the core layer, measured outside the simulator:
 * SubwarpPartitioner::draw and Coalescer::coalesceInto replayed on real
 * AES warp instructions.
 */
class CoreLayer
{
  public:
    CoreLayer(std::uint32_t block_bytes, std::uint64_t seed);

    /**
     * Replay every memory instruction of @p kernel, each warp under
     * a partition drawn from @p partitioner.
     */
    void replay(const rcoal::sim::KernelSource &kernel,
                const rcoal::core::SubwarpPartitioner &partitioner);

    /** core.coalesce_ns, core.accesses_per_instr, core.partition_draw_ns. */
    void report(MetricSet &metrics) const;

    /** Host nanoseconds spent replaying so far. */
    std::int64_t totalNs() const { return drawNs + coalesceNs; }

  private:
    rcoal::core::Coalescer coalescer;
    rcoal::Rng rng;
    std::vector<rcoal::core::CoalescedAccess> scratch;
    std::int64_t drawNs = 0;
    std::int64_t coalesceNs = 0;
    std::uint64_t draws = 0;
    std::uint64_t memInstructions = 0;
    std::uint64_t accesses = 0;
};

/**
 * Mean host nanoseconds of one CorrelationAttack::
 * estimateLastRoundAccesses call over a fixed set of (observation, key
 * byte, guess) triples.
 */
double estimateNs(
    const rcoal::attack::CorrelationAttack &attacker,
    std::span<const rcoal::attack::EncryptionObservation> observations,
    std::uint64_t seed);

/**
 * The attack-layer metrics: collect and attackKey seconds, guesses
 * tried per attack second (16 key bytes x 256 guesses per attack), and
 * the estimate cost.
 */
void reportAttackLayer(MetricSet &metrics, double collect_s,
                       double attack_s, unsigned attacks,
                       double estimate_ns);

/**
 * Host time per simulated cycle between telemetry samples: a
 * benchmark-owned TelemetrySampler collector stamps host time at each
 * sample point.
 */
class IntervalClock
{
  public:
    /** Register the stamping collector on @p sampler. */
    void attach(rcoal::telemetry::TelemetrySampler &sampler);

    /** Host ns per simulated cycle of every sampled interval. */
    std::vector<double> nsPerCycle() const;

  private:
    std::vector<std::pair<std::int64_t, rcoal::Cycle>> stamps;
};

/** Sum of every counter cell of family @p name (0 when absent). */
double counterSum(const rcoal::telemetry::MetricRegistry &registry,
                  std::string_view name);

/**
 * The core and workloads layers of a served workload: build the AES
 * kernel of the first @p probes 32-line probe plaintexts of every
 * stream in @p probe_seeds (workloads.kernel_build_us) and replay it
 * through a CoreLayer under @p policy (core.*).
 */
void reportProbeCoreLayer(MetricSet &metrics,
                          const rcoal::core::CoalescingPolicy &policy,
                          std::span<const std::uint8_t> key,
                          const std::vector<std::uint64_t> &probe_seeds,
                          unsigned probes, std::uint64_t seed);

/** Host seconds of one round: simulation calls and attacks. */
struct RoundTimes
{
    double runS = 0.0;
    double attackS = 0.0;
};

/** What the passes of a served workload measured. */
struct ServedPasses
{
    std::vector<RoundTimes> timed;
    std::vector<RoundTimes> traced;
    std::vector<double> detachedRunS; ///< Telemetry-detached run() time.
};

/**
 * The passes serve_saturated and fleet_autoscale share. Timed rounds
 * run @p run_round(true, nullptr) for @p opts.seconds; with @p spans,
 * each is paired with a traced round (@p run_round(true, spans)) and a
 * telemetry-detached one (@p run_round(false, spans)), in alternating
 * order. Every round must reproduce @p reference, compared through
 * @p digest_of(round, with_attack) — the detached run has no attack.
 * The first traced round is moved into @p first_traced; the others are
 * dropped once checked, so memory does not grow with the round count.
 */
template <typename Round, typename RunRound, typename DigestOf>
ServedPasses
runServedPasses(const Options &opts, SpanStore *spans, const char *name,
                const Round &reference, std::uint64_t ops_per_round,
                RunRound &&run_round, DigestOf &&digest_of, Checks &checks,
                Round &first_traced)
{
    const std::uint64_t with_attack = digest_of(reference, true).value();
    const std::uint64_t simulated = digest_of(reference, false).value();
    const auto check = [&](const Round &round, bool attacked,
                           const char *pass) {
        checks.expect(digest_of(round, attacked).value() ==
                          (attacked ? with_attack : simulated),
                      std::string(pass) +
                          " round differs from the reference round");
        checks.attempt(ops_per_round);
    };
    ServedPasses passes;
    repeatPassesFor(
        opts.seconds, spans != nullptr,
        [&] {
            const Round round = run_round(true, nullptr);
            check(round, true, "timed");
            passes.timed.push_back({round.runS, round.attackS});
        },
        [&] {
            ScopedSpan workload_span(spans, name);
            const bool detached_first = passes.traced.size() % 2 == 1;
            const auto detached = [&] {
                const Round bare = run_round(false, spans);
                check(bare, false, "telemetry-detached");
                passes.detachedRunS.push_back(bare.runS);
            };
            if (detached_first)
                detached();
            Round round = run_round(true, spans);
            check(round, true, "traced");
            passes.traced.push_back({round.runS, round.attackS});
            if (passes.traced.size() == 1)
                first_traced = std::move(round);
            if (!detached_first)
                detached();
        });
    return passes;
}

/**
 * Host-time metrics of a served workload: requests_per_s and
 * sim_cycles_per_s over the timed rounds (@p requests and @p cycles per
 * round); with traced rounds also the attack layer, @p run_metric
 * (serve.run_s or fleet.run_s), telemetry.overhead_pct and
 * trace.overhead_pct. Prints the per-round throughput.
 */
void reportServedTimes(MetricSet &metrics, const ServedPasses &passes,
                       const char *workload, double requests, double cycles,
                       const char *run_metric, unsigned attacks,
                       double estimate_ns);

/** Fold completed requests (identity, timing, ciphertext) in. */
void digestCompleted(
    Digest &digest,
    const std::vector<rcoal::serve::CompletedRequest> &completed);

/**
 * Check every completed request's ciphertext against rcoal::aes. Probe
 * ids index the probe plaintext stream; the plaintext of any other id
 * comes from @p background.
 */
void checkCompleted(
    const std::vector<rcoal::serve::CompletedRequest> &completed,
    std::span<const std::uint8_t> key, std::uint64_t probe_seed,
    unsigned probe_lines,
    const std::unordered_map<std::uint64_t,
                             std::vector<rcoal::aes::Block>> &background,
    Checks &checks);

/** Median seconds of one @p setup call over the set-up repetitions. */
template <typename Setup>
double
medianSetupSeconds(Setup &&setup)
{
    std::vector<double> seconds;
    double total = 0.0;
    while (seconds.size() < kMaxSetupReps &&
           (seconds.size() < kMinSetupReps || total < kSetupSeconds)) {
        const Stopwatch watch;
        setup();
        seconds.push_back(watch.wallSeconds());
        total += seconds.back();
    }
    return median(seconds);
}

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
