/**
 * @file
 * Bench harness implementation.
 */

#include "bench_support.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "rcoal/common/logging.hpp"
#include "rcoal/sim/config.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/telemetry/prometheus.hpp"

namespace rcoal::bench {

namespace {

/** Seconds elapsed since @p start (steady clock). */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Existing per-driver entries of a v2 report file, in file order. Each
 * entry is the single JSON-object line the driver wrote. Older schemas
 * (and unreadable files) yield an empty list — their layout predates
 * per-driver keying, so there is nothing mergeable to preserve.
 */
std::vector<std::pair<std::string, std::string>>
readDriverEntries(const std::string &path)
{
    std::vector<std::pair<std::string, std::string>> entries;
    std::ifstream in(path);
    if (!in)
        return entries;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    if (text.find("\"rcoal-engine-report-v2\"") == std::string::npos)
        return entries;

    // Entries are written one per line as:  "<driver>": {...},
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        const auto quote = line.find("    \"");
        if (quote != 0)
            continue;
        const auto name_end = line.find('"', 5);
        if (name_end == std::string::npos)
            continue;
        const auto brace = line.find('{', name_end);
        if (brace == std::string::npos)
            continue;
        auto object_end = line.find_last_of('}');
        if (object_end == std::string::npos || object_end < brace)
            continue;
        entries.emplace_back(
            line.substr(5, name_end - 5),
            line.substr(brace, object_end - brace + 1));
    }
    return entries;
}

} // namespace

ThreadPool &
benchPool()
{
    return globalThreadPool();
}

EngineReport::Phase &
EngineReport::phaseFor(const std::string &name)
{
    for (auto &phase : phases) {
        if (phase.name == name)
            return phase;
    }
    phases.push_back({name, 0, {}});
    return phases.back();
}

void
EngineReport::record(const std::string &phase, std::uint64_t items,
                     double wall_seconds)
{
    Phase &p = phaseFor(phase);
    p.items += items;
    p.wallSeconds.push(wall_seconds);
}

void
EngineReport::merge(const std::string &phase, std::uint64_t items,
                    const RunningStats &wall_seconds)
{
    Phase &p = phaseFor(phase);
    p.items += items;
    p.wallSeconds.merge(wall_seconds);
}

void
EngineReport::setExtra(const std::string &key, const std::string &value)
{
    for (auto &existing : extras) {
        if (existing.first == key) {
            existing.second = value;
            return;
        }
    }
    extras.emplace_back(key, value);
}

void
EngineReport::writeJson(const std::string &path,
                        const std::string &driver) const
{
    // Assemble this driver's entry as one line so the merge below can
    // treat the file as a line-per-driver key/value store.
    std::string entry = strprintf(
        "{\"threads\": %u, \"hardware_concurrency\": %u, ",
        benchPool().size(), std::thread::hardware_concurrency());

    entry += "\"phases\": {";
    double total_wall = 0.0;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const Phase &p = phases[i];
        const double wall = p.wallSeconds.sum();
        total_wall += wall;
        entry += strprintf(
            "\"%s\": {\"calls\": %zu, \"items\": %llu, "
            "\"wall_seconds\": %.6f, \"mean_call_seconds\": %.6f, "
            "\"min_call_seconds\": %.6f, \"max_call_seconds\": %.6f, "
            "\"items_per_second\": %.3f}%s",
            p.name.c_str(), p.wallSeconds.count(),
            static_cast<unsigned long long>(p.items), wall,
            p.wallSeconds.mean(),
            p.wallSeconds.count() ? p.wallSeconds.min() : 0.0,
            p.wallSeconds.count() ? p.wallSeconds.max() : 0.0,
            wall > 0.0 ? static_cast<double>(p.items) / wall : 0.0,
            i + 1 < phases.size() ? ", " : "");
    }
    entry += strprintf("}, \"total_wall_seconds\": %.6f, ", total_wall);

    // Per-worker engine totals summarized: how evenly the sweep
    // spread. Folding them through RunningStats keeps the report
    // robust to any worker count (including the serial 1-thread
    // engine).
    RunningStats tasks_per_worker;
    RunningStats busy_per_worker;
    for (const auto &worker : benchPool().workerStats()) {
        tasks_per_worker.push(static_cast<double>(worker.tasks));
        busy_per_worker.push(worker.busySeconds);
    }
    entry += strprintf(
        "\"workers\": %zu, "
        "\"worker_tasks\": {\"mean\": %.1f, \"min\": %.0f, "
        "\"max\": %.0f}, "
        "\"worker_busy_seconds_total\": %.6f",
        tasks_per_worker.count(), tasks_per_worker.mean(),
        tasks_per_worker.count() ? tasks_per_worker.min() : 0.0,
        tasks_per_worker.count() ? tasks_per_worker.max() : 0.0,
        busy_per_worker.sum());
    // Simulator-cycle throughput: every GpuMachine retired in this
    // process folded its counters into the global accumulator, so the
    // ratio against the phase wall clock is the end-to-end simulation
    // rate the event-driven core achieves for this driver.
    auto all_extras = extras;
    const sim::SimCycleCounters &cycles = sim::simCycleCounters();
    const auto simulated =
        cycles.simulated.load(std::memory_order_relaxed);
    all_extras.emplace_back(
        "sim_cycles",
        strprintf("%llu", static_cast<unsigned long long>(simulated)));
    all_extras.emplace_back(
        "sim_cycles_per_second",
        strprintf("%.1f", total_wall > 0.0
                              ? static_cast<double>(simulated) /
                                    total_wall
                              : 0.0));
    if (sim::resolveCycleSkipping(true)) {
        all_extras.emplace_back(
            "skipped_cycles",
            strprintf("%llu",
                      static_cast<unsigned long long>(
                          cycles.skipped.load(
                              std::memory_order_relaxed))));
    }
    entry += ", \"extras\": {";
    for (std::size_t i = 0; i < all_extras.size(); ++i) {
        entry += strprintf("\"%s\": %s%s", all_extras[i].first.c_str(),
                           all_extras[i].second.c_str(),
                           i + 1 < all_extras.size() ? ", " : "");
    }
    entry += "}}";

    // Merge: replace (or append) only this driver's entry.
    auto entries = readDriverEntries(path);
    bool replaced = false;
    for (auto &existing : entries) {
        if (existing.first == driver) {
            existing.second = entry;
            replaced = true;
            break;
        }
    }
    if (!replaced)
        entries.emplace_back(driver, entry);

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write engine report to '%s'", path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"rcoal-engine-report-v2\",\n");
    std::fprintf(f, "  \"drivers\": {\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        std::fprintf(f, "    \"%s\": %s%s\n", entries[i].first.c_str(),
                     entries[i].second.c_str(),
                     i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

EngineReport &
engineReport()
{
    static EngineReport report;
    return report;
}

void
writeEngineReport(const std::string &path)
{
    engineReport().writeJson(path, benchDriverName());
    std::printf("\n[engine] %u thread(s); wrote %s entry '%s'\n",
                benchPool().size(), path.c_str(),
                benchDriverName().c_str());
}

const std::array<std::uint8_t, 16> &
victimKey()
{
    // The FIPS-197 example key; any key works, this one makes results
    // easy to cross-check.
    static const std::array<std::uint8_t, 16> key = {
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
        0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    return key;
}

const std::vector<unsigned> &
paperSubwarpCounts()
{
    static const std::vector<unsigned> counts = {1, 2, 4, 8, 16, 32};
    return counts;
}

namespace {

/**
 * Byte-for-byte equality of two observations: every field is a
 * deterministic function of the trial, so fork and replay must agree
 * exactly (doubles included — they hold integer cycle counts).
 */
bool
observationsIdentical(const attack::EncryptionObservation &a,
                      const attack::EncryptionObservation &b)
{
    return a.ciphertext == b.ciphertext && a.totalTime == b.totalTime &&
           a.lastRoundTime == b.lastRoundTime &&
           a.lastRoundAccesses == b.lastRoundAccesses &&
           a.totalAccesses == b.totalAccesses;
}

} // namespace

std::vector<attack::EncryptionObservation>
collectObservationsFor(const sim::GpuConfig &config, unsigned samples,
                       unsigned lines, std::uint64_t plaintext_seed)
{
    const unsigned warmup = benchWarmup();
    const attack::CollectMode mode = benchCollectMode();
    const auto start = std::chrono::steady_clock::now();
    auto observations = attack::EncryptionService::collectSamplesShared(
        config, victimKey(), samples, lines, plaintext_seed, warmup,
        mode, &benchPool());
    engineReport().record("collect", samples, secondsSince(start));

    if (warmup > 0 && mode == attack::CollectMode::Fork) {
        // Fork-vs-replay cross-check on a bounded trial prefix: replay
        // re-simulates the warm-up from a cold machine, so any state the
        // snapshot failed to capture (or restore) shows up here as a
        // byte mismatch. Timed separately — the collect_replay /
        // collect items_per_second ratio is the recorded fork speedup.
        const unsigned replayed = std::min(samples, 6u);
        const auto replay_start = std::chrono::steady_clock::now();
        const auto replayed_obs =
            attack::EncryptionService::collectSamplesShared(
                config, victimKey(), replayed, lines, plaintext_seed,
                warmup, attack::CollectMode::Replay, &benchPool());
        engineReport().record("collect_replay", replayed,
                              secondsSince(replay_start));
        for (unsigned i = 0; i < replayed; ++i) {
            if (!observationsIdentical(observations[i],
                                       replayed_obs[i])) {
                fatal("fork-vs-replay divergence at trial %u "
                      "(policy %s, warmup %u): snapshot restore lost "
                      "machine state",
                      i, config.policy.name().c_str(), warmup);
            }
        }
    }
    return observations;
}

std::vector<attack::EncryptionObservation>
collectObservations(const core::CoalescingPolicy &policy,
                    unsigned samples, unsigned lines,
                    std::uint64_t victim_seed,
                    std::uint64_t plaintext_seed)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.seed = victim_seed;
    cfg.policy = policy;
    return collectObservationsFor(cfg, samples, lines, plaintext_seed);
}

PolicyEvaluation
evaluatePolicy(const core::CoalescingPolicy &policy, unsigned samples,
               unsigned lines, attack::MeasurementVector measurement,
               std::uint64_t victim_seed, std::uint64_t plaintext_seed)
{
    PolicyEvaluation eval;
    eval.policy = policy;
    eval.samples = samples;
    eval.lines = lines;

    const auto observations = collectObservations(
        policy, samples, lines, victim_seed, plaintext_seed);
    for (const auto &obs : observations) {
        eval.meanTotalTime += obs.totalTime;
        eval.meanLastRoundTime += obs.lastRoundTime;
        eval.meanTotalAccesses += static_cast<double>(obs.totalAccesses);
        eval.meanLastRoundAccesses +=
            static_cast<double>(obs.lastRoundAccesses);
    }
    const auto n = static_cast<double>(observations.size());
    eval.meanTotalTime /= n;
    eval.meanLastRoundTime /= n;
    eval.meanTotalAccesses /= n;
    eval.meanLastRoundAccesses /= n;

    attack::AttackConfig attack_cfg;
    attack_cfg.assumedPolicy = policy;
    attack_cfg.measurement = measurement;
    attack::CorrelationAttack attacker(attack_cfg);

    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.policy = policy;
    attack::EncryptionService reference(cfg, victimKey());
    const auto start = std::chrono::steady_clock::now();
    eval.attackResult = attacker.attackKey(
        observations, reference.lastRoundKey(), &benchPool());
    engineReport().record("attack", 16 * 256, secondsSince(start));
    return eval;
}

std::vector<core::CoalescingPolicy>
defenseFamilies(unsigned m)
{
    return {
        core::CoalescingPolicy::fss(m),
        core::CoalescingPolicy::fss(m, true),
        core::CoalescingPolicy::rss(m),
        core::CoalescingPolicy::rss(m, true),
    };
}

std::string
familyName(const core::CoalescingPolicy &policy)
{
    switch (policy.mechanism) {
      case core::Mechanism::Baseline:
        return "Baseline";
      case core::Mechanism::Disabled:
        return "NoCoalescing";
      case core::Mechanism::Fss:
        return policy.randomThreads ? "FSS+RTS" : "FSS";
      case core::Mechanism::Rss:
        return policy.randomThreads ? "RSS+RTS" : "RSS";
    }
    return "?";
}

void
printByteScatterSummary(const attack::ByteAttackResult &byte_result,
                        std::uint8_t true_byte)
{
    // Reproduce the information content of the scatter plots: where the
    // correct guess lands relative to the 255 wrong guesses.
    double wrong_min = 1.0;
    double wrong_max = -1.0;
    double wrong_sum = 0.0;
    for (unsigned m = 0; m < 256; ++m) {
        if (m == true_byte)
            continue;
        const double c = byte_result.correlation[m];
        wrong_min = std::min(wrong_min, c);
        wrong_max = std::max(wrong_max, c);
        wrong_sum += c;
    }
    std::printf("  correct guess 0x%02x: corr %+0.4f (rank %u)\n",
                true_byte, byte_result.correlation[true_byte],
                byte_result.rankOfCorrect);
    std::printf("  wrong guesses: min %+0.4f mean %+0.4f max %+0.4f\n",
                wrong_min, wrong_sum / 255.0, wrong_max);
    std::printf("  best guess 0x%02x with corr %+0.4f -> %s\n",
                byte_result.bestGuess, byte_result.bestCorrelation,
                byte_result.bestGuess == true_byte ? "KEY BYTE RECOVERED"
                                                   : "recovery failed");
}

void
runScatterFigure(
    const std::string &title,
    const std::function<core::CoalescingPolicy(unsigned)> &policy_for_m,
    unsigned samples)
{
    printBanner(title);
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    attack::EncryptionService reference(cfg, victimKey());
    const aes::Block true_key = reference.lastRoundKey();

    TablePrinter table({"num-subwarp", "avg corr (all bytes)",
                        "byte-0 corr", "byte-0 rank",
                        "bytes recovered"});
    for (unsigned m : {2u, 4u, 8u, 16u}) {
        const auto eval = evaluatePolicy(policy_for_m(m), samples);
        std::printf("num-subwarp = %u (%s):\n", m,
                    eval.policy.name().c_str());
        printByteScatterSummary(eval.attackResult.bytes[0], true_key[0]);
        table.addRow(
            {TablePrinter::num(m),
             TablePrinter::num(eval.avgCorrelation(), 3),
             TablePrinter::num(
                 eval.attackResult.bytes[0].correctGuessCorrelation, 3),
             TablePrinter::num(static_cast<int>(
                 eval.attackResult.bytes[0].rankOfCorrect)),
             TablePrinter::num(eval.attackResult.bytesRecovered) +
                 "/16"});
    }
    std::printf("\n");
    table.print();
}

std::string
lowered(const char *s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

void
writePromSnapshot(const std::string &path,
                  const telemetry::MetricRegistry &registry)
{
    const std::string text = telemetry::renderPrometheus(registry);
    if (const auto lint = telemetry::lintPrometheus(text)) {
        fatal("telemetry exposition failed lint for %s: %s",
              path.c_str(), lint->c_str());
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write telemetry snapshot %s", path.c_str());
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::printf("  wrote %s\n", path.c_str());
}

} // namespace rcoal::bench
