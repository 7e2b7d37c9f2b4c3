/**
 * @file
 * The repository benchmark driver.
 *
 *   rcoal_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--trace-out FILE]
 *
 * With --trace 0 it runs the timed pass and reports the end-to-end
 * metrics; with --trace 1 it alternates timed and traced rounds and
 * reports the per-layer metrics, writing the traced pass's spans to
 * FILE as Chrome-trace JSON. Human-readable lines come first; the last
 * line of stdout is one JSON object with the keys correct, attempted,
 * failed and metrics.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, reported by every workload's timed pass. */
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"requests_per_s", "1/s"},
    {"sim_cycles_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/**
 * The per-layer metrics of the traced pass. A workload that does not
 * exercise a layer reports 0 for it (see README.md for the map).
 */
constexpr MetricSpec kPerLayer[] = {
    {"kernel_cycles_mean", "cycles"},
    {"probe_p99_cycles", "cycles"},
    {"attack.collect_s", "s"},
    {"attack.attack_key_s", "s"},
    {"attack.guesses_per_s", "1/s"},
    {"attack.estimate_ns", "ns"},
    {"sim.fork_us", "us"},
    {"sim.tick_ns", "ns"},
    {"sim.ticks", "count"},
    {"sim.next_event_ns", "ns"},
    {"sim.skip_calls", "count"},
    {"sim.skipped_cycles", "count"},
    {"sim.take_us", "us"},
    {"sim.interval_ns_per_cycle_p50", "ns"},
    {"sim.interval_ns_per_cycle_p90", "ns"},
    {"sim.host_ns_per_access", "ns"},
    {"core.coalesce_ns", "ns"},
    {"core.accesses_per_instr", "accesses/instr"},
    {"core.partition_draw_ns", "ns"},
    {"workloads.kernel_build_us", "us"},
    {"serve.boot_s", "s"},
    {"serve.run_s", "s"},
    {"fleet.run_s", "s"},
    {"telemetry.overhead_pct", "%"},
    {"sim.warp_instructions", "count"},
    {"sim.coalesced_accesses", "count"},
    {"sim.prt_stall_cycles", "count"},
    {"sim.icn_stall_cycles", "count"},
    {"sim.xbar_packets", "count"},
    {"sim.dram_row_hits", "count"},
    {"sim.dram_row_misses", "count"},
    {"sim.dram_activates", "count"},
    {"serve.kernels_launched", "count"},
    {"serve.batch_requests_mean", "requests"},
    {"serve.queue_depth_mean", "requests"},
    {"serve.rejected", "count"},
    {"serve.sm_occupancy", "%"},
    {"fleet.autoscaler_actions", "count"},
    {"fleet.active_replicas_mean", "replicas"},
    {"telemetry.samples", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "rcoal_perfbench: %s\nusage: rcoal_perfbench --workload "
                 "attack_eval|serve_saturated|fleet_autoscale --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 message);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            opts.trace = std::strcmp(value, "1") == 0;
            if (!opts.trace && std::strcmp(value, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (flag == "--trace-out") {
            opts.traceOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const std::string fingerprint = machineFingerprint();
    std::printf("fingerprint: %s\n", fingerprint.c_str());
    std::printf("workload %s, seed %llu, %.1f s, %s pass\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? "timed+traced" : "timed");

    SpanStore store;
    SpanStore *spans = opts.trace ? &store : nullptr;
    WorkloadResult result;
    if (opts.workload == "attack_eval")
        result = runAttackEval(opts, spans);
    else if (opts.workload == "serve_saturated")
        result = runServeSaturated(opts, spans);
    else if (opts.workload == "fleet_autoscale")
        result = runFleetAutoscale(opts, spans);
    else
        usage(("unknown workload " + opts.workload).c_str());

    std::printf("digest: %s\n", result.digest.hex().c_str());
    if (spans != nullptr) {
        std::printf("span self time (s), %zu spans:\n",
                    store.spans().size());
        std::string self_json = "{";
        for (const auto &[name, seconds] : store.selfSeconds()) {
            std::printf("  %-16s %.6f\n", name.c_str(), seconds);
            self_json += (self_json.size() > 1 ? ",\"" : "\"") + name +
                         "\":" + std::to_string(seconds);
        }
        self_json += "}";
        if (!opts.traceOut.empty()) {
            const std::string metadata =
                "{\"fingerprint\":" + fingerprint + ",\"workload\":\"" +
                opts.workload + "\",\"seed\":" + std::to_string(opts.seed) +
                ",\"self_seconds\":" + self_json + "}";
            result.checks.expect(
                store.writeChromeTrace(opts.traceOut, metadata),
                "cannot write " + opts.traceOut);
            std::printf("trace: wrote %s\n", opts.traceOut.c_str());
        }
    }

    std::string metrics;
    const auto emit = [&](const MetricSpec &spec, bool required) {
        double value = 0.0;
        bool found = false;
        for (const MetricSet::Entry &e : result.metrics.entries()) {
            if (e.name == spec.name) {
                value = e.value;
                found = true;
                result.checks.expect(e.unit == spec.unit,
                                     std::string(spec.name) + " unit " +
                                         e.unit);
            }
        }
        result.checks.expect(found || !required,
                             std::string(spec.name) + " not measured");
        result.checks.expect(std::isfinite(value),
                             std::string(spec.name) + " is not finite");
        if (!std::isfinite(value))
            value = 0.0;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", spec.name, value,
                      spec.unit);
        metrics += buf;
        std::printf("metric %-32s %.6g %s\n", spec.name, value, spec.unit);
    };
    if (opts.trace) {
        for (const MetricSpec &spec : kPerLayer)
            emit(spec, false);
    } else {
        for (const MetricSpec &spec : kEndToEnd)
            emit(spec, true);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                result.checks.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(result.checks.attempted()),
                static_cast<unsigned long long>(result.checks.failed()),
                metrics.c_str());
    return 0;
}
