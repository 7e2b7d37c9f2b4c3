/**
 * @file
 * Bench CLI implementation.
 */

#include "cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "rcoal/common/logging.hpp"
#include "rcoal/mem/dram_backend.hpp"
#include "rcoal/sim/config.hpp"

namespace rcoal::bench {

namespace {

std::uint64_t current_seed = 42;
std::string current_driver = "bench";
unsigned current_warmup = 0;
attack::CollectMode current_collect_mode = attack::CollectMode::Fork;

/** basename without directories (no libgen dependency). */
std::string
baseName(const char *argv0)
{
    std::string name = argv0 != nullptr ? argv0 : "bench";
    const auto slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    return name.empty() ? "bench" : name;
}

[[noreturn]] void
printUsage(const std::string &driver, unsigned default_samples,
           unsigned default_warmup)
{
    std::printf("usage: %s [N | --samples N] [--seed S] [--threads T] "
                "[--trace FILE] [--telemetry-out DIR]\n"
                "       [--telemetry-interval N] "
                "[--no-cycle-skipping] [--dram-backend NAME]\n"
                "       [--warmup N] [--collect-mode fork|replay]\n"
                "  --samples N   sample count (default %u)\n"
                "  --seed S      victim GPU seed (default 42)\n"
                "  --threads T   engine worker count "
                "(default: RCOAL_THREADS or hardware)\n"
                "  --trace FILE  export a Chrome/Perfetto trace of one "
                "representative run\n"
                "                (event recording needs a "
                "-DRCOAL_TRACE=ON build)\n"
                "  --telemetry-out DIR\n"
                "                write one Prometheus snapshot per "
                "scenario into DIR\n"
                "                (drivers with live telemetry; DIR must "
                "exist)\n"
                "  --telemetry-interval N\n"
                "                cycles between telemetry samples "
                "(default 5000)\n"
                "  --no-cycle-skipping\n"
                "                force the all-awake stepping "
                "reference (identical\n"
                "                output, lower simulator throughput)\n"
                "  --dram-backend NAME\n"
                "                DRAM personality: gddr5 (default), "
                "gddr6 or hbm2;\n"
                "                backend-sweep drivers treat it as a "
                "filter\n"
                "  --warmup N    shared-prefix warm-up launches per "
                "sweep cell\n"
                "                (default %u; 0 = historical cold-start "
                "collection)\n"
                "  --collect-mode fork|replay\n"
                "                reuse the warm prefix by snapshot fork "
                "(default) or\n"
                "                by re-simulating it per trial "
                "(byte-identical\n"
                "                verification path)\n"
                "  --span-sample-rate N\n"
                "                keep every Nth request span (retained "
                "iff spanId %% N == 0,\n"
                "                deterministic, no RNG; default 1 = all; "
                "span-tracing\n"
                "                drivers only)\n",
                driver.c_str(), default_samples, default_warmup);
    std::exit(0);
}

/** Parse the numeric value of flag @p flag or die with context. */
std::uint64_t
numericValue(const char *flag, const char *value)
{
    if (value == nullptr)
        fatal("%s requires a value", flag);
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0')
        fatal("%s expects a number, got '%s'", flag, value);
    return parsed;
}

} // namespace

CliOptions
parseBenchArgs(int argc, char **argv, unsigned default_samples,
               unsigned default_warmup)
{
    CliOptions opts;
    opts.driver = baseName(argc > 0 ? argv[0] : nullptr);
    opts.samples = default_samples;
    opts.warmup = default_warmup;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            printUsage(opts.driver, default_samples, default_warmup);
        } else if (std::strcmp(arg, "--samples") == 0) {
            opts.samples =
                static_cast<unsigned>(numericValue(arg, value));
            ++i;
        } else if (std::strcmp(arg, "--seed") == 0) {
            opts.seed = numericValue(arg, value);
            ++i;
        } else if (std::strcmp(arg, "--threads") == 0) {
            opts.threads =
                static_cast<unsigned>(numericValue(arg, value));
            if (opts.threads == 0)
                fatal("--threads must be positive");
            ++i;
        } else if (std::strcmp(arg, "--trace") == 0) {
            if (value == nullptr || value[0] == '\0')
                fatal("--trace requires a file path");
            opts.tracePath = value;
            ++i;
        } else if (std::strcmp(arg, "--telemetry-out") == 0) {
            if (value == nullptr || value[0] == '\0')
                fatal("--telemetry-out requires a directory path");
            opts.telemetryDir = value;
            ++i;
        } else if (std::strcmp(arg, "--telemetry-interval") == 0) {
            opts.telemetryInterval = numericValue(arg, value);
            if (opts.telemetryInterval == 0)
                fatal("--telemetry-interval must be positive");
            ++i;
        } else if (std::strcmp(arg, "--no-cycle-skipping") == 0) {
            sim::setCycleSkippingOverride(0);
        } else if (std::strcmp(arg, "--dram-backend") == 0) {
            sim::DramBackendKind kind;
            if (value == nullptr ||
                !mem::parseDramBackendKind(value, kind)) {
                fatal("--dram-backend expects gddr5, gddr6 or hbm2 "
                      "(got '%s')",
                      value != nullptr ? value : "");
            }
            opts.dramBackend = value;
            ++i;
        } else if (std::strcmp(arg, "--warmup") == 0) {
            opts.warmup =
                static_cast<unsigned>(numericValue(arg, value));
            ++i;
        } else if (std::strcmp(arg, "--collect-mode") == 0) {
            if (value != nullptr && std::strcmp(value, "fork") == 0) {
                opts.collectMode = attack::CollectMode::Fork;
            } else if (value != nullptr &&
                       std::strcmp(value, "replay") == 0) {
                opts.collectMode = attack::CollectMode::Replay;
            } else {
                fatal("--collect-mode expects fork or replay "
                      "(got '%s')",
                      value != nullptr ? value : "");
            }
            ++i;
        } else if (std::strcmp(arg, "--span-sample-rate") == 0) {
            opts.spanSampleRate =
                static_cast<unsigned>(numericValue(arg, value));
            if (opts.spanSampleRate == 0)
                fatal("--span-sample-rate must be positive");
            ++i;
        } else if (i == 1 && arg[0] != '-' && std::atoi(arg) > 0) {
            // Historical form: first positional argument = samples.
            opts.samples = static_cast<unsigned>(std::atoi(arg));
        } else {
            fatal("unknown argument '%s' (try --help)", arg);
        }
    }

    if (opts.samples == 0)
        fatal("--samples must be positive");
    if (opts.threads > 0) {
        // The global pool reads RCOAL_THREADS lazily on first use, so
        // exporting here (before any pool call) is race-free.
        char buf[16];
        std::snprintf(buf, sizeof buf, "%u", opts.threads);
        setenv("RCOAL_THREADS", buf, 1);
    }

    current_seed = opts.seed;
    current_driver = opts.driver;
    current_warmup = opts.warmup;
    current_collect_mode = opts.collectMode;
    return opts;
}

std::uint64_t
benchSeed()
{
    return current_seed;
}

unsigned
benchWarmup()
{
    return current_warmup;
}

attack::CollectMode
benchCollectMode()
{
    return current_collect_mode;
}

const std::string &
benchDriverName()
{
    return current_driver;
}

} // namespace rcoal::bench
