/**
 * @file
 * Workload helpers shared by the three workloads.
 */

#include "layers.hpp"

#include <cstdio>
#include <cstring>

#include "rcoal/sim/config.hpp"
#include "rcoal/sim/kernel.hpp"
#include "rcoal/workloads/aes_kernel.hpp"

namespace perfbench {

using namespace rcoal;

namespace {

/** Partitions drawn per replayed warp (the timer needs a batch). */
constexpr unsigned kDrawsPerWarp = 32;

/** Observations and guesses the estimate probe covers. */
constexpr std::size_t kEstimateObservations = 16;
constexpr unsigned kEstimateGuesses = 16;

/** Keeps probe results alive so the compiler cannot drop the calls. */
volatile double g_sink = 0.0;

} // namespace

std::uint64_t
streamSeed(std::uint64_t seed, Stream s)
{
    return Rng::deriveSeed(seed, static_cast<std::uint64_t>(s));
}

std::uint64_t
scenarioSeed(std::uint64_t seed, unsigned k)
{
    return Rng::deriveSeed(seed, 0x5ce0'0000ull + k);
}

std::array<std::uint8_t, 16>
victimKey(std::uint64_t seed)
{
    Rng rng(streamSeed(seed, Stream::Key));
    return workloads::randomKey128(rng);
}

attack::AttackConfig
attackConfig(const core::CoalescingPolicy &policy, std::uint64_t seed)
{
    attack::AttackConfig cfg;
    cfg.assumedPolicy = policy;
    cfg.measurement = attack::MeasurementVector::LastRoundTime;
    cfg.seed = streamSeed(seed, Stream::Attacker);
    return cfg;
}

void
checkCiphertexts(const aes::Aes &reference,
                 std::span<const aes::Block> plaintext,
                 std::span<const aes::Block> ciphertext, Checks &checks,
                 const std::string &what)
{
    if (plaintext.size() != ciphertext.size()) {
        checks.expect(false, what + ": line count differs");
        return;
    }
    bool ok = true;
    for (std::size_t i = 0; i < plaintext.size(); ++i)
        ok = ok && reference.encryptBlock(plaintext[i]) == ciphertext[i];
    checks.expect(ok, what + ": ciphertext differs from rcoal::aes");
}

bool
sameObservations(std::span<const attack::EncryptionObservation> a,
                 std::span<const attack::EncryptionObservation> b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        if (x.ciphertext != y.ciphertext ||
            std::memcmp(&x.totalTime, &y.totalTime, sizeof x.totalTime) !=
                0 ||
            std::memcmp(&x.lastRoundTime, &y.lastRoundTime,
                        sizeof x.lastRoundTime) != 0 ||
            x.lastRoundAccesses != y.lastRoundAccesses ||
            x.totalAccesses != y.totalAccesses) {
            return false;
        }
    }
    return true;
}

void
digestObservations(Digest &digest,
                   std::span<const attack::EncryptionObservation> observations)
{
    digest.u64(observations.size());
    for (const auto &obs : observations) {
        for (const aes::Block &block : obs.ciphertext)
            digest.bytes(block.data(), block.size());
        digest.f64(obs.totalTime);
        digest.f64(obs.lastRoundTime);
        digest.u64(obs.lastRoundAccesses);
        digest.u64(obs.totalAccesses);
    }
}

void
digestKeyAttack(Digest &digest, const attack::KeyAttackResult &result)
{
    digest.bytes(result.recoveredLastRoundKey.data(),
                 result.recoveredLastRoundKey.size());
    digest.u64(result.bytesRecovered);
    for (const auto &byte : result.bytes)
        digest.u64(byte.rankOfCorrect);
}

void
digestLatency(Digest &digest, const serve::LatencySummary &s)
{
    digest.u64(s.count);
    for (const double v : {s.p50, s.p95, s.p99, s.p999, s.mean, s.max})
        digest.f64(v);
}

CoreLayer::CoreLayer(std::uint32_t block_bytes, std::uint64_t seed)
    : coalescer(block_bytes), rng(streamSeed(seed, Stream::CoreReplay))
{
}

void
CoreLayer::replay(const sim::KernelSource &kernel,
                  const core::SubwarpPartitioner &partitioner)
{
    for (WarpId w = 0; w < kernel.numWarps(); ++w) {
        const std::int64_t t0 = nowNs();
        core::SubwarpPartition partition = partitioner.draw(rng);
        for (unsigned d = 1; d < kDrawsPerWarp; ++d)
            partition = partitioner.draw(rng);
        const std::int64_t t1 = nowNs();
        std::uint64_t warp_accesses = 0;
        std::uint64_t warp_instructions = 0;
        for (const sim::WarpInstruction &instr : kernel.trace(w)) {
            if (instr.op == sim::WarpInstruction::Op::Alu)
                continue;
            coalescer.coalesceInto(instr.lanes, partition, scratch);
            warp_accesses += scratch.size();
            ++warp_instructions;
        }
        const std::int64_t t2 = nowNs();
        drawNs += t1 - t0;
        coalesceNs += t2 - t1;
        draws += kDrawsPerWarp;
        memInstructions += warp_instructions;
        accesses += warp_accesses;
    }
}

void
CoreLayer::report(MetricSet &metrics) const
{
    const auto per = [](std::int64_t ns, std::uint64_t n) {
        return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
    };
    metrics.set("core.coalesce_ns", per(coalesceNs, memInstructions), "ns");
    metrics.set("core.accesses_per_instr",
                memInstructions == 0
                    ? 0.0
                    : static_cast<double>(accesses) /
                          static_cast<double>(memInstructions),
                "accesses/instr");
    metrics.set("core.partition_draw_ns", per(drawNs, draws), "ns");
}

double
estimateNs(const attack::CorrelationAttack &attacker,
           std::span<const attack::EncryptionObservation> observations,
           std::uint64_t seed)
{
    const std::size_t n =
        std::min(observations.size(), kEstimateObservations);
    if (n == 0)
        return 0.0;
    Rng rng(streamSeed(seed, Stream::Attacker));
    double sum = 0.0;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < n; ++i) {
        for (unsigned guess = 0; guess < kEstimateGuesses; ++guess) {
            sum += attacker.estimateLastRoundAccesses(
                observations[i].ciphertext, static_cast<unsigned>(i % 16),
                static_cast<std::uint8_t>(guess * 16 + i), rng);
        }
    }
    const std::int64_t t1 = nowNs();
    g_sink = sum;
    return static_cast<double>(t1 - t0) /
           static_cast<double>(n * kEstimateGuesses);
}

void
IntervalClock::attach(telemetry::TelemetrySampler &sampler)
{
    stamps.clear();
    sampler.addCollector(
        [this](Cycle now) { stamps.emplace_back(nowNs(), now); });
}

std::vector<double>
IntervalClock::nsPerCycle() const
{
    std::vector<double> out;
    for (std::size_t i = 1; i < stamps.size(); ++i) {
        const Cycle cycles = stamps[i].second - stamps[i - 1].second;
        if (cycles > 0) {
            out.push_back(
                static_cast<double>(stamps[i].first - stamps[i - 1].first) /
                static_cast<double>(cycles));
        }
    }
    return out;
}

double
counterSum(const telemetry::MetricRegistry &registry, std::string_view name)
{
    double sum = 0.0;
    for (const auto &family : registry.families()) {
        if (family.name != name)
            continue;
        for (const auto &cell : family.cells) {
            if (cell.counter != nullptr)
                sum += static_cast<double>(cell.counter->value());
        }
    }
    return sum;
}

void
reportProbeCoreLayer(MetricSet &metrics, const core::CoalescingPolicy &policy,
                     std::span<const std::uint8_t> key,
                     const std::vector<std::uint64_t> &probe_seeds,
                     unsigned probes, std::uint64_t seed)
{
    const sim::GpuConfig gpu = sim::GpuConfig::paperBaseline();
    CoreLayer core_layer(gpu.coalesceBlockBytes, seed);
    const core::SubwarpPartitioner partitioner(policy, gpu.warpSize);
    std::vector<double> build_us;
    for (const std::uint64_t probe_seed : probe_seeds) {
        for (unsigned i = 0; i < probes; ++i) {
            Rng rng = Rng::stream(probe_seed, i);
            const auto plaintext = workloads::randomPlaintext(32, rng);
            const std::int64_t t0 = nowNs();
            const workloads::AesGpuKernel kernel(plaintext, key,
                                                 gpu.warpSize);
            build_us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            core_layer.replay(kernel, partitioner);
        }
    }
    metrics.set("workloads.kernel_build_us", median(build_us), "us");
    core_layer.report(metrics);
}

void
reportServedTimes(MetricSet &metrics, const ServedPasses &passes,
                  const char *workload, double requests, double cycles,
                  const char *run_metric, unsigned attacks,
                  double estimate_ns)
{
    std::vector<double> requests_per_s, cycles_per_s, timed_s;
    for (const RoundTimes &t : passes.timed) {
        requests_per_s.push_back(requests / (t.runS + t.attackS));
        cycles_per_s.push_back(cycles / t.runS);
        timed_s.push_back(t.runS + t.attackS);
    }
    std::printf("%s: rounds of %.0f requests and %.0f cycles; round time "
                "%s\n",
                workload, requests, cycles, summarize(timed_s, "s").c_str());
    metrics.set("requests_per_s", median(requests_per_s), "1/s");
    metrics.set("sim_cycles_per_s", median(cycles_per_s), "1/s");
    if (passes.traced.empty())
        return;

    std::vector<double> run_s, attack_s, traced_s;
    for (const RoundTimes &t : passes.traced) {
        run_s.push_back(t.runS);
        attack_s.push_back(t.attackS);
        traced_s.push_back(t.runS + t.attackS);
    }
    std::printf("%s: traced round time %s\n", workload,
                summarize(traced_s, "s").c_str());
    reportAttackLayer(metrics, median(run_s), median(attack_s), attacks,
                      estimate_ns);
    metrics.set(run_metric, median(run_s), "s");
    metrics.set("telemetry.overhead_pct",
                (median(run_s) / median(passes.detachedRunS) - 1.0) * 100.0,
                "%");
    metrics.set("trace.overhead_pct",
                (median(traced_s) / median(timed_s) - 1.0) * 100.0, "%");
}

void
digestCompleted(Digest &digest,
                const std::vector<serve::CompletedRequest> &completed)
{
    digest.u64(completed.size());
    for (const serve::CompletedRequest &r : completed) {
        for (const std::uint64_t v :
             {r.id, static_cast<std::uint64_t>(r.isProbe), r.tenant,
              std::uint64_t{r.lines}, r.arrival, r.launched, r.completed,
              r.kernelLastRoundAccesses, r.kernelTotalAccesses,
              r.kernelPredictedLastRoundAccesses,
              std::uint64_t{r.batchRequests}}) {
            digest.u64(v);
        }
        digest.f64(r.kernelTotalTime);
        digest.f64(r.kernelLastRoundTime);
        for (const aes::Block &block : r.ciphertext)
            digest.bytes(block.data(), block.size());
    }
}

void
checkCompleted(
    const std::vector<serve::CompletedRequest> &completed,
    std::span<const std::uint8_t> key, std::uint64_t probe_seed,
    unsigned probe_lines,
    const std::unordered_map<std::uint64_t, std::vector<aes::Block>>
        &background,
    Checks &checks)
{
    const aes::Aes reference(key);
    for (const serve::CompletedRequest &r : completed) {
        const std::string what = "request " + std::to_string(r.id);
        if (r.isProbe) {
            Rng rng = Rng::stream(probe_seed, r.id);
            checkCiphertexts(reference,
                             workloads::randomPlaintext(probe_lines, rng),
                             r.ciphertext, checks, what);
            continue;
        }
        const auto it = background.find(r.id);
        if (it == background.end()) {
            checks.expect(false, what + ": plaintext not regenerated");
            continue;
        }
        checkCiphertexts(reference, it->second, r.ciphertext, checks, what);
    }
}

void
reportAttackLayer(MetricSet &metrics, double collect_s, double attack_s,
                  unsigned attacks, double estimate_ns)
{
    metrics.set("attack.collect_s", collect_s, "s");
    metrics.set("attack.attack_key_s", attack_s, "s");
    metrics.set("attack.guesses_per_s",
                attack_s > 0.0 ? attacks * 16.0 * 256.0 / attack_s : 0.0,
                "1/s");
    metrics.set("attack.estimate_ns", estimate_ns, "ns");
}

} // namespace perfbench
