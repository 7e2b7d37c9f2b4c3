/**
 * @file
 * attack_eval: the paper's experiment (Sec. IV-E, Figs. 15/16) as a
 * closed batch job, for BASE and RSS+RTS(M=8).
 *
 * Per policy: EncryptionService::warmedSnapshot with two warm-up
 * launches (set-up), collectSamplesShared(..., CollectMode::Fork) of
 * kTrialsPerPolicy 32-line plaintexts, then CorrelationAttack::attackKey
 * with the attacker assuming the deployed policy and measuring the
 * last-round time.
 *
 * The traced pass replaces the single collect call with a copy of its
 * per-trial body built from the same public calls (fork, reseed, kernel
 * build, launch, a copy of GpuMachine::runUntilDone, take), so fork,
 * build, tick, next-event, skip and take can be timed apart. Its
 * observations must be byte-identical to the timed pass.
 */

#include <cstdio>
#include <optional>

#include "layers.hpp"
#include "rcoal/aes/key_schedule.hpp"
#include "rcoal/attack/encryption_service.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/workloads/aes_kernel.hpp"

namespace perfbench {

namespace {

using namespace rcoal;

constexpr unsigned kTrialsPerPolicy = 150;
constexpr unsigned kLines = 32;
constexpr unsigned kWarmupLaunches = 2;

/** Trials re-simulated with CollectMode::Replay as a cross-check. */
constexpr unsigned kReplayTrials = 8;

/** GpuMachine::runUntilDone's deadlock cap on skip targets. */
constexpr Cycle kMaxCycles = 2'000'000'000;

/** One defense policy under its matching attack. */
struct Cell
{
    std::string name;
    sim::GpuConfig gpu;
    aes::Block lastRoundKey{};
    sim::MachineSnapshot warm;
    std::optional<attack::CorrelationAttack> attacker;
};

struct Setup
{
    std::array<std::uint8_t, 16> key{};
    std::uint64_t plaintextSeed = 0;
    std::vector<Cell> cells;
};

Setup
setUp(std::uint64_t seed)
{
    Setup s;
    s.key = victimKey(seed);
    s.plaintextSeed = streamSeed(seed, Stream::Plaintext);
    const std::pair<const char *, core::CoalescingPolicy> policies[] = {
        {"BASE", core::CoalescingPolicy::baseline()},
        {"RSS+RTS", core::CoalescingPolicy::rss(8, true)},
    };
    for (const auto &[name, policy] : policies) {
        Cell cell;
        cell.name = name;
        cell.gpu = sim::GpuConfig::paperBaseline();
        cell.gpu.policy = policy;
        cell.gpu.seed = streamSeed(seed, Stream::Gpu);
        cell.gpu.validate();
        const aes::KeySchedule schedule(s.key, aes::KeySize::Aes128);
        cell.lastRoundKey = schedule.roundKey(schedule.rounds());
        cell.warm = attack::EncryptionService::warmedSnapshot(
            cell.gpu, s.key, kLines, s.plaintextSeed, kWarmupLaunches);
        cell.attacker.emplace(attackConfig(policy, seed));
        s.cells.push_back(std::move(cell));
    }
    return s;
}

struct CellRun
{
    std::vector<attack::EncryptionObservation> observations;
    attack::KeyAttackResult attack;
};

/** One round: every cell collected and attacked once. */
struct Round
{
    std::vector<CellRun> cells;
    double collectS = 0.0;
    double attackS = 0.0;
};

Round
timedRound(const Setup &s)
{
    Round round;
    for (const Cell &cell : s.cells) {
        CellRun run;
        const Stopwatch collect;
        run.observations = attack::EncryptionService::collectSamplesShared(
            cell.gpu, s.key, kTrialsPerPolicy, kLines, s.plaintextSeed,
            kWarmupLaunches, attack::CollectMode::Fork, nullptr);
        round.collectS += collect.wallSeconds();
        const Stopwatch attack_watch;
        run.attack =
            cell.attacker->attackKey(run.observations, cell.lastRoundKey);
        round.attackS += attack_watch.wallSeconds();
        round.cells.push_back(std::move(run));
    }
    return round;
}

/** Host time and counts of the sim and workloads layers, per round. */
struct SimLayer
{
    std::int64_t forkNs = 0, buildNs = 0, runNs = 0, takeNs = 0;
    std::int64_t tickNs = 0, nextNs = 0, skipNs = 0;
    std::uint64_t trials = 0, ticks = 0, nextCalls = 0, skipCalls = 0;
    std::uint64_t skippedCycles = 0, simCycles = 0;
    sim::KernelStats kernels; ///< Summed per-launch stats.
    std::uint64_t dramRowHits = 0, dramRowMisses = 0, dramActivates = 0;
    std::vector<double> nsPerCycle; ///< One per trial.
};

/**
 * One trial of collectSamplesShared(Fork), timed call by call. The
 * run loop is GpuMachine::runUntilDone with timers around tick(),
 * nextEventCycle() (with the done() poll before it) and skipTo().
 */
attack::EncryptionObservation
tracedTrial(const Setup &s, const Cell &cell, unsigned trial,
            SpanStore &spans, SimLayer &layer, CoreLayer &core_layer,
            const core::SubwarpPartitioner &partitioner)
{
    const std::int32_t trial_span = spans.open("trial", nowNs());
    Rng rng = Rng::stream(s.plaintextSeed, trial);
    const auto plaintext = workloads::randomPlaintext(kLines, rng);

    const std::int64_t t0 = nowNs();
    auto machine = sim::GpuMachine::fork(cell.warm);
    machine->reseed(Rng::deriveSeed(cell.gpu.seed, trial + 1));
    const std::int64_t t1 = nowNs();
    const workloads::AesGpuKernel kernel(plaintext, s.key,
                                         machine->config().warpSize);
    const std::int64_t t2 = nowNs();
    spans.leaf("fork", t0, t1);
    spans.leaf("build", t1, t2);
    const sim::KernelStats memory_before = machine->memoryStats();

    const std::int64_t run0 = nowNs();
    const std::int32_t run_span = spans.open("run", run0);
    const auto id = machine->launchStream(
        kernel, sim::SmRange{0, machine->config().numSms}, 1);
    const Cycle cycle0 = machine->now();
    const bool skipping = machine->cycleSkippingEnabled();
    std::int64_t tick_ns = 0, next_ns = 0, skip_ns = 0;
    std::uint64_t ticks = 0, next_calls = 0, skip_calls = 0, skipped = 0;
    while (!machine->done(id)) {
        const std::int64_t a = nowNs();
        machine->tick();
        const std::int64_t b = nowNs();
        tick_ns += b - a;
        ++ticks;
        if (!skipping || machine->done(id))
            continue;
        const Cycle target = std::min(machine->nextEventCycle(), kMaxCycles);
        const std::int64_t c = nowNs();
        next_ns += c - b;
        ++next_calls;
        if (target > machine->now() + 1) {
            skipped += machine->skipTo(target);
            skip_ns += nowNs() - c;
            ++skip_calls;
        }
    }
    const std::int64_t run1 = nowNs();
    const Cycle cycles = machine->now() - cycle0;
    spans.leaf("tick", run0, run0 + tick_ns,
               "\"calls\":" + std::to_string(ticks));
    spans.leaf("next_event", run0 + tick_ns, run0 + tick_ns + next_ns,
               "\"calls\":" + std::to_string(next_calls));
    spans.leaf("skip", run0 + tick_ns + next_ns,
               run0 + tick_ns + next_ns + skip_ns,
               "\"calls\":" + std::to_string(skip_calls) +
                   ",\"skipped_cycles\":" + std::to_string(skipped));
    spans.close(run_span, run1, "\"cycles\":" + std::to_string(cycles));

    const sim::KernelStats stats = machine->take(id);
    const std::int64_t t3 = nowNs();
    spans.leaf("take", run1, t3);

    attack::EncryptionObservation obs;
    obs.ciphertext = kernel.ciphertext();
    obs.totalTime = static_cast<double>(stats.cycles);
    obs.lastRoundTime = static_cast<double>(stats.lastRoundCycles());
    obs.lastRoundAccesses = stats.lastRoundAccesses();
    obs.totalAccesses = stats.coalescedAccesses;

    const sim::KernelStats &memory = machine->memoryStats();
    layer.dramRowHits += memory.dramRowHits - memory_before.dramRowHits;
    layer.dramRowMisses +=
        memory.dramRowMisses - memory_before.dramRowMisses;
    layer.dramActivates +=
        memory.dramActivates - memory_before.dramActivates;
    layer.kernels.accumulate(stats);
    layer.forkNs += t1 - t0;
    layer.buildNs += t2 - t1;
    layer.runNs += run1 - run0;
    layer.takeNs += t3 - run1;
    layer.tickNs += tick_ns;
    layer.nextNs += next_ns;
    layer.skipNs += skip_ns;
    layer.ticks += ticks;
    layer.nextCalls += next_calls;
    layer.skipCalls += skip_calls;
    layer.skippedCycles += skipped;
    layer.simCycles += cycles;
    layer.nsPerCycle.push_back(static_cast<double>(run1 - run0) /
                               static_cast<double>(cycles));
    ++layer.trials;
    machine.reset();

    const std::int64_t r0 = nowNs();
    core_layer.replay(kernel, partitioner);
    spans.leaf("core_replay", r0, nowNs());
    spans.close(trial_span, nowNs(),
                "\"trial\":" + std::to_string(trial) +
                    ",\"cycles\":" + std::to_string(stats.cycles));
    return obs;
}

/** The traced round and what its layer probes measured. */
struct TracedRound
{
    Round round;
    SimLayer sim;
    MetricSet core;
    double estimateNs = 0.0;
};

TracedRound
tracedRound(const Setup &s, std::uint64_t seed, SpanStore &spans)
{
    TracedRound traced;
    ScopedSpan workload_span(&spans, "attack_eval");
    std::vector<double> estimates;
    CoreLayer core_layer(s.cells.front().gpu.coalesceBlockBytes, seed);
    for (const Cell &cell : s.cells) {
        ScopedSpan cell_span(&spans, "cell");
        cell_span.args("\"policy\":\"" + cell.name + "\"");
        const core::SubwarpPartitioner partitioner(cell.gpu.policy,
                                                   cell.gpu.warpSize);
        CellRun run;
        const std::int64_t replay_before = core_layer.totalNs();
        const Stopwatch collect;
        for (unsigned trial = 0; trial < kTrialsPerPolicy; ++trial) {
            run.observations.push_back(tracedTrial(
                s, cell, trial, spans, traced.sim, core_layer, partitioner));
        }
        traced.round.collectS +=
            collect.wallSeconds() -
            secondsBetween(replay_before, core_layer.totalNs());
        {
            ScopedSpan attack_span(&spans, "attackKey");
            const Stopwatch attack_watch;
            run.attack =
                cell.attacker->attackKey(run.observations, cell.lastRoundKey);
            traced.round.attackS += attack_watch.wallSeconds();
        }
        const std::int64_t e0 = nowNs();
        estimates.push_back(
            estimateNs(*cell.attacker, run.observations, seed));
        spans.leaf("estimate_probe", e0, nowNs());
        traced.round.cells.push_back(std::move(run));
    }
    core_layer.report(traced.core);
    traced.estimateNs = median(estimates);
    return traced;
}

} // namespace

WorkloadResult
runAttackEval(const Options &opts, SpanStore *spans)
{
    WorkloadResult result;
    Setup setup;
    const double setup_s =
        medianSetupSeconds([&] { setup = setUp(opts.seed); });

    // Warm-up round: untimed, and the reference every later round and
    // the traced pass must reproduce byte for byte.
    const Round reference = timedRound(setup);
    const aes::Aes aes_ref(setup.key);
    for (std::size_t c = 0; c < setup.cells.size(); ++c) {
        const auto &observations = reference.cells[c].observations;
        for (unsigned trial = 0; trial < observations.size(); ++trial) {
            Rng rng = Rng::stream(setup.plaintextSeed, trial);
            const auto plaintext = workloads::randomPlaintext(kLines, rng);
            checkCiphertexts(aes_ref, plaintext,
                             observations[trial].ciphertext, result.checks,
                             setup.cells[c].name + " trial " +
                                 std::to_string(trial));
        }
        digestObservations(result.digest, observations);
        digestKeyAttack(result.digest, reference.cells[c].attack);
    }
    const auto same_round = [&](const Round &round, const char *pass) {
        for (std::size_t c = 0; c < setup.cells.size(); ++c) {
            Digest a, b;
            digestKeyAttack(a, round.cells[c].attack);
            digestKeyAttack(b, reference.cells[c].attack);
            result.checks.expect(
                sameObservations(round.cells[c].observations,
                                 reference.cells[c].observations) &&
                    a.value() == b.value(),
                std::string(pass) + " pass " + setup.cells[c].name +
                    " differs from the reference round");
        }
        result.checks.attempt(setup.cells.size() * (kTrialsPerPolicy + 1));
    };

    // Only the reference round keeps its outputs, so peak memory does
    // not grow with the number of rounds a run fits in.
    std::vector<Round> timed;
    std::vector<TracedRound> traced;
    repeatPassesFor(
        opts.seconds, spans != nullptr,
        [&] {
            timed.push_back(timedRound(setup));
            same_round(timed.back(), "timed");
            timed.back().cells.clear();
        },
        [&] {
            traced.push_back(tracedRound(setup, opts.seed, *spans));
            same_round(traced.back().round, "traced");
            traced.back().round.cells.clear();
        });

    // Replay re-simulates the warm-up prefix per trial instead of
    // forking the snapshot; it must agree with Fork on every trial.
    for (std::size_t c = 0; c < setup.cells.size(); ++c) {
        const Cell &cell = setup.cells[c];
        const auto replayed = attack::EncryptionService::collectSamplesShared(
            cell.gpu, setup.key, kReplayTrials, kLines, setup.plaintextSeed,
            kWarmupLaunches, attack::CollectMode::Replay, nullptr);
        const auto &forked = reference.cells[c].observations;
        result.checks.expect(
            sameObservations(replayed,
                             std::span(forked).first(kReplayTrials)),
            "Replay differs from Fork for " + cell.name);
    }

    std::vector<double> kernel_cycles;
    for (const CellRun &run : reference.cells) {
        for (const auto &obs : run.observations)
            kernel_cycles.push_back(obs.totalTime);
    }
    double sim_cycles = 0.0;
    for (const double c : kernel_cycles)
        sim_cycles += c;
    const auto trials = static_cast<double>(kernel_cycles.size());

    // A trial is one encryption request, collected and then attacked.
    std::vector<double> requests_per_s, cycles_per_s, round_s;
    for (const Round &round : timed) {
        requests_per_s.push_back(trials / (round.collectS + round.attackS));
        cycles_per_s.push_back(sim_cycles / round.collectS);
        round_s.push_back(round.collectS + round.attackS);
    }
    std::printf("attack_eval: rounds of %.0f trials and %.0f cycles; round "
                "time %s\n",
                trials, sim_cycles, summarize(round_s, "s").c_str());

    MetricSet &m = result.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("requests_per_s", median(requests_per_s), "1/s");
    m.set("sim_cycles_per_s", median(cycles_per_s), "1/s");
    m.set("kernel_cycles_mean", sim_cycles / trials, "cycles");
    m.set("probe_p99_cycles", percentile(kernel_cycles, 99.0), "cycles");

    if (!traced.empty()) {
        std::vector<double> collect_s, attack_s, traced_s;
        for (const TracedRound &t : traced) {
            collect_s.push_back(t.round.collectS);
            attack_s.push_back(t.round.attackS);
            traced_s.push_back(t.round.collectS + t.round.attackS);
        }
        const TracedRound &first = traced.front();
        const SimLayer &sim = first.sim;
        reportAttackLayer(m, median(collect_s), median(attack_s),
                          static_cast<unsigned>(setup.cells.size()),
                          first.estimateNs);
        const auto per = [](std::int64_t ns, std::uint64_t n) {
            return n == 0 ? 0.0
                          : static_cast<double>(ns) / static_cast<double>(n);
        };
        m.set("sim.fork_us", per(sim.forkNs, sim.trials) * 1e-3, "us");
        m.set("sim.tick_ns", per(sim.tickNs, sim.ticks), "ns");
        m.set("sim.ticks", static_cast<double>(sim.ticks), "count");
        m.set("sim.next_event_ns", per(sim.nextNs, sim.nextCalls), "ns");
        m.set("sim.skip_calls", static_cast<double>(sim.skipCalls), "count");
        m.set("sim.skipped_cycles", static_cast<double>(sim.skippedCycles),
              "count");
        m.set("sim.take_us", per(sim.takeNs, sim.trials) * 1e-3, "us");
        m.set("sim.interval_ns_per_cycle_p50",
              percentile(sim.nsPerCycle, 50.0), "ns");
        m.set("sim.interval_ns_per_cycle_p90",
              percentile(sim.nsPerCycle, 90.0), "ns");
        m.set("sim.host_ns_per_access",
              per(sim.runNs, sim.kernels.coalescedAccesses), "ns");
        m.set("workloads.kernel_build_us", per(sim.buildNs, sim.trials) * 1e-3,
              "us");
        for (const MetricSet::Entry &e : first.core.entries())
            m.set(e.name, e.value, e.unit);
        m.set("sim.warp_instructions",
              static_cast<double>(sim.kernels.warpInstructions), "count");
        m.set("sim.coalesced_accesses",
              static_cast<double>(sim.kernels.coalescedAccesses), "count");
        m.set("sim.prt_stall_cycles",
              static_cast<double>(sim.kernels.prtStallCycles), "count");
        m.set("sim.icn_stall_cycles",
              static_cast<double>(sim.kernels.icnStallCycles), "count");
        m.set("sim.dram_row_hits", static_cast<double>(sim.dramRowHits),
              "count");
        m.set("sim.dram_row_misses", static_cast<double>(sim.dramRowMisses),
              "count");
        m.set("sim.dram_activates", static_cast<double>(sim.dramActivates),
              "count");
        m.set("trace.overhead_pct",
              (median(traced_s) / median(round_s) - 1.0) * 100.0, "%");
        for (const TracedRound &t : traced) {
            result.checks.expect(t.sim.ticks == sim.ticks &&
                                     t.sim.simCycles == sim.simCycles,
                                 "traced tick counts differ between rounds");
        }
        result.checks.expect(sim.simCycles ==
                                 static_cast<std::uint64_t>(sim_cycles),
                             "traced cycles differ from the timed pass");
    }
    m.set("peak_rss_mb", peakRssMb(), "MiB");
    return result;
}

} // namespace perfbench
